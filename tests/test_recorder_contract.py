"""The benchmark's span recorder patches package names by attribute.

``perfbench/recorder.py`` replaces functions in the namespaces where
their callers look them up, so a rename or deletion in the package
breaks it.  This test makes that visible without a traced benchmark run.
"""

import importlib
from pathlib import Path

from yanglee import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_recorder_targets_resolve_and_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorder = importlib.import_module("recorder")
    rec = recorder.Recorder()
    assert recorder._targets(rec)  # looks up every patched name
    with recorder.instrumented(rec):
        assert cli.run(["xxz-bethe", "--L", "6", "--M", "3"]) == 0
    names = {span[0] for span in rec.spans}
    assert {"cli", "xxz.bethe"} <= names


def test_recorder_times_correlator_nodes(monkeypatch, capsys):
    # ssh-corr evaluates its momentum nodes through ssh.corr_momentum, the
    # name the recorder patches for its ssh.corr_momentum metric
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorder = importlib.import_module("recorder")
    rec = recorder.Recorder()
    with recorder.instrumented(rec):
        assert cli.run(["ssh-corr", "--u", "1", "--v", "2.05", "--w", "1",
                        "--x-max", "20"]) == 0
    capsys.readouterr()
    names = {span[0] for span in rec.spans}
    assert {"cli", "ssh.corr_momentum"} <= names


def test_recorder_sees_one_asymptote_call_per_table(monkeypatch, capsys):
    # ssh-corr evaluates the K0 asymptote of every distance in one
    # ssh.corr_asymptotic call, with its K0 terms through ssh.bessel_k0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorder = importlib.import_module("recorder")
    rec = recorder.Recorder()
    with recorder.instrumented(rec):
        assert cli.run(["ssh-corr", "--u", "1", "--v", "2.05", "--w", "1",
                        "--channel", "AB", "--x-max", "20"]) == 0
    capsys.readouterr()
    names = [span[0] for span in rec.spans]
    assert names.count("ssh.corr_asymptotic") == 1
    assert names.count("k0") >= 1


def test_recorder_sums_polynomial_degrees(monkeypatch, capsys):
    # xxz-zeros --analytic finds its roots in one xxz.roots_of_polynomial
    # call; the recorder reads the degree of its ComplexPolynomial argument
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorder = importlib.import_module("recorder")
    rec = recorder.Recorder()
    with recorder.instrumented(rec):
        assert cli.run(["xxz-zeros", "--L", "4", "--beta", "50", "--grid-n", "8",
                        "--analytic"]) == 0
    capsys.readouterr()
    names = [span[0] for span in rec.spans]
    assert names.count("poly") == 1
    assert rec.counts["poly.degree_sum"] == 4
