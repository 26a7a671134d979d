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
import scipy.linalg

import yanglee
from yanglee import cli, ssh, xxz
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


def _fmt(value) -> str:
    """The reference text of one field, chosen by the value's type."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _header(command):
    return [column.split(":")[0] for column in cli._TABLES[command].split()]


def _reference_tables(header, rows):
    """The CSV and JSON bytes a csv.writer over ``_fmt`` fields gives."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    records = [dict(zip(header, [_fmt(v) for v in row])) for row in rows]
    return {"csv": buf.getvalue(), "json": json.dumps(records, indent=1) + "\n"}


def _written_tables(command, rows, tmp_path):
    out = tmp_path / "t.txt"
    written = {}
    for fmt in ("csv", "json"):
        cli._write_table(command, rows, str(out), fmt)
        written[fmt] = out.read_text()
    return written


_FLOATS = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
           123456789012.5, 1e16, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("rows", [
    [(f, i, b, "numeric") for f, i, b in zip(_FLOATS, range(-6, 7), [True, False] * 7)],
    [(0.5, 10 ** 30 * i, i, "x") for i in range(-3, 4)],  # ints of any size
    [(np.float64(1.5), np.int64(2), np.int32(-1), "a"),
     (np.float64(-0.0), np.int64(-3), np.uint8(255), "b")],
    [(1.5, 1, 1, "a"), (np.float64(2.5), 2, 2, "b")],  # float and float64 in a column
    [(1.0, True, 1, "a"), (2.0, 1, False, "b")],  # bool and int in a column
    [(np.float64("nan"), np.int64(2 ** 62), np.int8(-128), "a"),
     (np.float64("-inf"), np.int64(-(2 ** 63)), np.uint64(2 ** 64 - 1), "b")],
    [(np.float32(0.1), 0, 0, "a")],  # a narrower float prints its own value
    [(0.1 + 0.2, 0, 0, "a"), (9.9999999999995, 0, 0, "b"), (-123456789012.5, 0, 0, "c")],
    [(1e-5, 0, 0, "a"), (1e-4, 0, 0, "b"), (1e11, 0, 0, "c"), (1e12, 0, 0, "d")],
    [(float(j) / 7, j, j % 2 == 0, "numeric") for j in range(1023)],
    [(float(j) / 7, j, j % 2 == 0, "numeric") for j in range(1024)],  # one full batch
    [(float(j) / 7, j, j % 2 == 0, "numeric") for j in range(1025)],
    [(float(j) / 7, j, j % 2 == 0, "analytic") for j in range(2049)],
    [(2.0 ** -1074, -0, 0, "a"), (-(2.0 ** -1022), 0, 0, "b")],  # subnormal and tiny
    [(1.0, 0, 0, "")],  # an empty text field beside others is not quoted
    [],
])
def test_table_bytes_match_csv_writer(tmp_path, monkeypatch, rows):
    # declared columns print each value as csv.writer prints _fmt(value),
    # in CSV and in JSON, at any row count across the batch boundary
    monkeypatch.setitem(cli._TABLES, "t", "c0 c1:d c2:d c3:s")
    assert _written_tables("t", rows, tmp_path) == _reference_tables(_header("t"), rows)


def test_one_format_line_for_plain_tables():
    assert cli._columns("xxz-zeros") == (["re_delta", "im_delta", "provenance", "residual"],
                                         ["%.12g", "%.12g", "%s", "%.12g"])
    assert cli._columns("ssh-zeros-scan")[1] == ["%.12g", "%.12g", "%d", "%d"]
    for command in cli._TABLES:
        names, specs = cli._columns(command)
        assert len(set(names)) == len(names) == len(specs)
        assert set(specs) <= {"%.12g", "%d", "%s"}


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("yanglee ")]


def _table_tasks():
    """README examples with --out dropped, then one benchmark task per command."""
    tasks = []
    for line in _readme_commands():
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        tasks.append(argv)
    # one task of each command from the benchmark workloads at seed 1
    # (xxz-susceptibility is in none of them)
    for line in ("ssh-zeros-scan --u=1 --wv-steps=200 --t-steps=50",
                 "ssh-chi --u=1 --v=1.00495937 --w=1 --beta=90275.5911",
                 "ssh-corr --u=1 --v=2.01651599 --w=1 --channel=BA --x-max=120",
                 "ssh-ee --u=1 --v=0.928831923 --w=1 --cells=1000",
                 "xxz-poly --L=12",
                 "xxz-zeros --L=4 --beta=63.3866219 --grid-n=32 --analytic",
                 "xxz-verify-zeros --L=7 --beta=25",
                 "xxz-bethe --L=12 --M=5",
                 "xxz-ee --L=10 --delta-re=1.02297437 --delta-im=0.0476892251",
                 "xxz-gap --L-list=6,8,10 --delta-re=-0.039783903"):
        tasks.append(line.split())
    return tasks


@pytest.mark.parametrize("argv", _table_tasks(), ids=" ".join)
def test_command_tables_match_csv_writer(argv, tmp_path, monkeypatch, capsys):
    # a column declared :d would truncate a float, one declared :s would
    # print a float's repr; the reference formats each value by its type
    captured = []
    write_table = cli._write_table

    def keep_rows(command, rows, out_path, fmt):
        rows = list(rows)  # a command may return a one-pass generator
        captured.append(rows)
        return write_table(command, rows, out_path, fmt)

    monkeypatch.setattr(cli, "_write_table", keep_rows)
    written = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"table.{fmt}"
        assert run(argv + ["--format", fmt, "--out", str(out)]) == 0
        written[fmt] = out.read_text()
    assert captured[0]
    for rows in captured:
        assert _reference_tables(_header(argv[0]), rows) == written
    capsys.readouterr()


def test_verify_zeros_distance_is_the_printed_pair_apart(monkeypatch, capsys):
    captured = []
    write_table = cli._write_table

    def keep_rows(command, rows, out_path, fmt):
        captured.extend(rows)
        return write_table(command, captured, out_path, fmt)

    monkeypatch.setattr(cli, "_write_table", keep_rows)
    assert run(["xxz-verify-zeros", "--L", "6", "--beta", "100"]) == 0
    assert len(captured) == xxz.zero_polynomial(6).degree
    for _, re_a, im_a, re_n, im_n, distance, _ in captured:
        assert distance == abs(complex(re_n, im_n) - complex(re_a, im_a))
    capsys.readouterr()


def test_help_lists_each_printed_header(capsys):
    assert run(["--help"]) == 0
    listed = {}
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if len(fields) == 2 and line.startswith("  ") and fields[0] in cli._TABLES:
            listed[fields[0]] = fields[1]
    printed = {}
    for argv in (["xxz-poly", "--L", "3"], ["xxz-gap", "--L-list", "4"],
                 ["xxz-bethe", "--L", "4", "--M", "2"],
                 ["xxz-susceptibility", "--L", "4"],
                 ["xxz-ee", "--L", "4", "--delta-re", "0.9"],
                 ["xxz-verify-zeros", "--L", "3", "--beta", "25"],
                 ["xxz-zeros", "--L", "2", "--beta", "25", "--grid-n", "8"],
                 ["ssh-chi", "--u", "1", "--v", "1", "--w", "1", "--beta", "10"],
                 ["ssh-corr", "--u", "1", "--v", "2.5", "--w", "1", "--x-max", "2"],
                 ["ssh-ee", "--u", "1", "--v", "2.5", "--w", "1", "--cells", "20",
                  "--subsystems", "2"],
                 ["ssh-zeros-scan", "--wv-steps", "2", "--t-steps", "2"]):
        assert run(argv) == 0
        printed[argv[0]] = capsys.readouterr().out.splitlines()[0]
    assert listed == printed
    assert sorted(printed) == sorted(cli._TABLES)


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
    # predicted gap of xxz-gap is the gapless-side level spacing, and
    # x_max > 32768 puts the first correlator grid at the node cap
    for argv in (["ssh-corr", "--u", "1", "--v", "1", "--w", "1", "--x-max", "3"],
                 ["xxz-gap", "--L-list", "6", "--delta-re=0"],
                 ["xxz-gap", "--L-list", "6", "--delta-re=0.05"],
                 ["ssh-corr", "--u=1", "--v=2.05", "--w=1", "--x-max=32769"]):
        assert run(argv) == 2
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap", [
    (["xxz-zeros", "--L", "2000", "--beta", "100", "--analytic"], "L = 10"),
    (["xxz-verify-zeros", "--L", "2000", "--beta", "100"], "L = 14"),
])
def test_oversized_length_exits_two(argv, cap, capsys):
    # the analytic zeros used to hand np.roots a companion matrix of
    # degree 10^6 (14.6 TiB) before any L cap was read
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and cap in captured.err


@pytest.mark.parametrize("flags, name", [
    (["--beta=-5"], "beta"),
    (["--beta=0"], "beta"),
    (["--beta=nan"], "beta"),
    (["--beta=inf"], "beta"),
    (["--beta=100", "--grid-n=0"], "grid_n"),
    (["--beta=100", "--grid-n=1"], "grid_n"),
    (["--beta=100", "--re-max=inf"], "windows"),
    (["--beta=100", "--im-min=nan"], "windows"),
    (["--beta=100", "--grid-n=4097"], "grid_n"),
])
def test_zero_search_domain_errors_exit_two(flags, name, capsys, monkeypatch):
    # these used to exit 0 with an empty table, and a --grid-n above the
    # cap asked for its grid_n^2 phase lattice; all are checked before it
    def no_search(*args):
        raise AssertionError("zero search started")

    monkeypatch.setattr(xxz, "_winding_cells", no_search)
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


@pytest.mark.parametrize("steps", [(100000, 100000), (2049, 2048), (10 ** 12, 1)])
def test_scan_above_cell_cap_exits_two(steps, capsys, monkeypatch):
    # 1e5 x 1e5 used to end in an uncaught _ArrayMemoryError (exit 1); the
    # cap is checked before the axes or the grid are allocated
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(ssh, "_mode_range", no_scan)
    monkeypatch.setattr(np, "linspace", no_scan)
    assert run(["ssh-zeros-scan", f"--wv-steps={steps[0]}", f"--t-steps={steps[1]}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "cap of 4194304" in captured.err


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


def test_bethe_large_chain_certified(capsys):
    # an absolute 1e-12 residual gate rejected these roots: at L = 400,
    # M = 200 Newton stalls at the residual's rounding floor, 1.8e-12
    assert run(["xxz-bethe", "--L", "400", "--M", "200"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 201
    linear, quadratic = (float(part.split(" = ")[1])
                         for part in captured.err.strip().split(", "))
    assert linear <= 1e-13 * 200
    assert quadratic <= 1e-13 * 200 * 199 / 399


@pytest.mark.parametrize("m, refused", [(4097, True), (4096, False)])
def test_bethe_above_m_cap_exits_two(m, refused, capsys, monkeypatch):
    # L = 1e5, M = 5e4 used to end in an uncaught _ArrayMemoryError (exit 1);
    # the cap is checked before the Jacobi matrix is solved
    def no_solve(*args):
        raise AssertionError("Bethe solve started")

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_solve)
    if refused:
        assert run(["xxz-bethe", "--L", "8194", "--M", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "cap of 4096" in captured.err
    else:
        with pytest.raises(AssertionError, match="Bethe solve started"):
            run(["xxz-bethe", "--L", "8194", "--M", str(m)])


def test_bethe_failed_polish_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal",
                        lambda d, e: 1e3 * np.linspace(-1.0, 1.0, d.size))
    assert run(["xxz-bethe", "--L", "9", "--M", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err
    assert "L = 9, M = 4: residual" in captured.err and "above the gate" in captured.err


_CHI_ARGS = "ssh-chi --u=1 --v=1 --w=1 --beta="
_EE_ARGS = "ssh-ee --u=1 --v=2.5 --w=1 --subsystems=10 --cells="
_ANALYTIC_ARGS = "xxz-zeros --L=4 --beta=50 --grid-n=8 --analytic --n-max="


@pytest.mark.parametrize("above, at_cap, target", [
    # chi = 2^22 + 1 at beta = 2 pi (2^22 + 1), and 2^22 at 2 pi 2^22
    ([_CHI_ARGS + "1e12", _CHI_ARGS + repr(2 * np.pi * (2 ** 22 + 1))],
     _CHI_ARGS + repr(2 * np.pi * 2 ** 22), (np, "arange")),
    ([_EE_ARGS + "2000000000", _EE_ARGS + str(2 ** 20 + 2)],
     _EE_ARGS + str(2 ** 20), (np, "arange")),
    # L // 2 + 1 terms
    (["xxz-poly --L=2000000000", f"xxz-poly --L={2 ** 22}"],
     f"xxz-poly --L={2 ** 22 - 1}", (xxz, "range")),
    # (n_max + 1) x 4 analytic zeros at L = 4
    ([_ANALYTIC_ARGS + "100000000", _ANALYTIC_ARGS + str(2 ** 19)],
     _ANALYTIC_ARGS + str(2 ** 19 - 1), (xxz, "roots_of_polynomial")),
    # gamma is 2 L_A x 2 L_A: at L_A = 10^5 it used to need 74.5 GiB
    (["ssh-ee --u=1 --v=1 --w=1 --cells=200000 --subsystems=100000",
      f"ssh-ee --u=1 --v=1 --w=1 --cells=4096 --subsystems=10,{2 ** 10 + 1}"],
     f"ssh-ee --u=1 --v=1 --w=1 --cells=4096 --subsystems={2 ** 10}", (np, "arange")),
])
def test_sizes_above_their_cap_exit_two(above, at_cap, target, capsys, monkeypatch):
    # each run above its cap used to end in an uncaught MemoryError (exit 1);
    # the cap is checked before the call that allocates the table
    def no_table(*args):
        raise AssertionError("table allocated")

    monkeypatch.setattr(*target, no_table, raising=False)
    for argv in above:
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "exceed the cap of" in captured.err
    with pytest.raises(AssertionError, match="table allocated"):
        run(at_cap.split())


def test_readme_cli_commands_parse():
    # every line of README's CLI block must be accepted as written
    commands = _readme_commands()
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
    commands = _readme_commands()
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
    # import bare scipy, which loads the submodule on first attribute access.
    # The other scipy submodules the package or its tests use stay unloaded
    # too, and so does logging: an import added to start-up needs a measured
    # start-up time, and logging is for runs that ask for it.
    src = str(Path(yanglee.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    names = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special",
             "scipy.sparse", "logging")
    code = f"import sys, yanglee.cli; print([m for m in {names!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
