"""End-to-end checks of the command-line interface.

Every command goes through ``main(argv)``, so the tests exercise the same
parsing, dispatch, and exit-code mapping a shell user would hit:
0 = pass, 1 = failed condition, 2 = bad input, 3 = budget.  Every refusal is
one row of the table at the end of this file.
"""
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

import scatdecay
from scatdecay import cli, filterbank, scattering
from scatdecay.cli import main
from scatdecay.decay import _SLACK_TOL, DecayRow, compute_constants
from scatdecay.filterbank import (
    bandpass_mother,
    build_bank,
    even_morlet_mother,
    load_bank,
    morlet_mother,
    save_bank,
    shannon_mother,
)
from scatdecay.signals import Signal, band_limited_signal, energy, write_signal
from scatdecay.stationary import load_model, make_model, save_model
from test_filterbank import _OCTAVES_OFF_FLOAT64


@pytest.fixture(scope="module")
def shannon_bank_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("banks") / "shannon256.json"
    save_bank(path, build_bank(shannon_mother(), 0, 256))
    return str(path)


@pytest.fixture(scope="module")
def morlet_bank_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("banks") / "morlet256.json"
    save_bank(path, build_bank(morlet_mother(), 0, 256))
    return str(path)


@pytest.fixture(scope="module")
def signal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sig") / "input.csv"
    rng = np.random.default_rng(11)
    write_signal(path, band_limited_signal(256, (2, 100), rng))
    return str(path)


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_bank_check_passes_and_writes_reports(shannon_bank_file, tmp_path, capsys):
    out = tmp_path / "check"
    code = main(["bank", "check", "--bank", shannon_bank_file, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("littlewood_paley", "asymmetry", "vanishing_order"):
        assert f"{name}: PASS" in stdout
        payload = json.loads((out / f"check_{name}.json").read_text())
        assert payload["passed"] is True
    assert "validated band: 2..127" in stdout


def test_shared_parser_keeps_no_state_between_calls(shannon_bank_file, tmp_path, capsys):
    # main parses with one parser per process; a refusal may not change a later parse
    assert cli.build_parser() is cli.build_parser()
    good = ["bank", "check", "--bank", shannon_bank_file, "--out", str(tmp_path / "check")]
    refused = [
        good + ["--seed", "1"],
        ["bank", "check", "--bank", shannon_bank_file],
        ["scatter", "run", "--bank", shannon_bank_file, "--out", str(tmp_path / "t"), "--signal", "s.csv",
         "--depth", "x"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
        return code, *capsys.readouterr()

    for argv in refused:
        first, passed, again = run(argv), run(good), run(argv)
        assert first == again and first[0] == 2 and first[2].startswith("usage: ")
        assert passed == run(good) and passed[0] == 0 and "validated band: 2..127" in passed[1]


def test_bank_check_flags_symmetric_mother(tmp_path, capsys):
    bank_path = tmp_path / "even.json"
    save_bank(bank_path, build_bank(even_morlet_mother(), 0, 256))
    out = tmp_path / "check"
    code = main(["bank", "check", "--bank", str(bank_path), "--out", str(out)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "asymmetry: FAIL" in stdout
    assert "littlewood_paley: PASS" in stdout
    assert "vanishing_order: PASS" in stdout


def test_scatter_run_is_byte_stable(shannon_bank_file, signal_file, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["scatter", "run", "--bank", shannon_bank_file, "--signal", signal_file,
             "--out", str(out), "--depth", "2"]
        )
        assert code == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    assert "manifest.json" in outs[0]
    assert "paths=73" in capsys.readouterr().out


def test_scatter_run_survives_a_fully_pruned_layer(tmp_path, capsys):
    # a cosine fills one octave at layer 1 and none at layer 2, so pruning
    # empties layer 2 and layer 3 has no parent rows at all
    bank_path = tmp_path / "shannon64.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 64))
    sig_path = tmp_path / "cosine.csv"
    write_signal(sig_path, Signal(np.cos(2 * np.pi * 5 * np.arange(64) / 64), real=True))
    out = tmp_path / "tree"
    code = main(
        ["scatter", "run", "--bank", str(bank_path), "--signal", str(sig_path),
         "--out", str(out), "--depth", "3", "--prune-eps", "1e-3"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["retained_paths"] == [[], [-2]]
    assert manifest["layer_energies"]["3"] == 0.0
    assert manifest["output_energies"]["2"] == 0.0
    assert manifest["output_energies"]["3"] == 0.0
    assert "paths=2 pruned=11" in capsys.readouterr().out


def test_decay_verify_default_signal(shannon_bank_file, tmp_path, capsys):
    out = tmp_path / "decay"
    code = main(
        ["decay", "verify", "--bank", shannon_bank_file, "--out", str(out), "--seed", "7"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "c=0.5" in stdout
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "n,empirical,bound,slack"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4"]
    constants = json.loads((out / "constants.json").read_text())
    assert constants["validated_band"] == [2, 127]
    assert constants["c"] == pytest.approx(0.5, abs=1e-12)


def test_decay_verify_is_byte_stable(morlet_bank_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["decay", "verify", "--bank", morlet_bank_file, "--out", str(out),
             "--seed", "3", "--depth", "3"]
        ) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bank_file", ["morlet_bank_file", "shannon_bank_file"])
def test_decay_csv_rows_do_not_depend_on_the_depth(bank_file, request, tmp_path):
    # a layer's row is the same at every depth, so a shallower table is a prefix of a deeper one
    tables = []
    for depth in ("3", "5"):
        out = tmp_path / depth
        assert main(["decay", "verify", "--bank", request.getfixturevalue(bank_file), "--out", str(out),
                     "--seed", "7", "--depth", depth]) == 0
        tables.append((out / "decay.csv").read_bytes())
    assert tables[1].startswith(tables[0]) and tables[1] != tables[0]


def test_readme_example_files_run_together(tmp_path, capsys):
    # the README's example bank and model files, read from it, are one grid: its stationary run
    # command passes on them
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")) as fh:
        text = fh.read()
    bank = text.split("Bank files are small JSON recipes, e.g.\n\n```json\n", 1)[1].split("\n", 1)[0]
    model = text.split("and model files likewise (`", 1)[1].split("`)", 1)[0]
    (tmp_path / "bank.json").write_text(bank)
    (tmp_path / "model.json").write_text(model)
    argv = ["stationary", "run", "--bank", str(tmp_path / "bank.json"), "--model", str(tmp_path / "model.json"),
            "--out", str(tmp_path / "mc"), "--trials", "200"]
    assert main(argv) == 0
    assert json.loads((tmp_path / "mc" / "mc_report.json").read_text())["pass"] is True


def test_stationary_run_within_bound(tmp_path, capsys):
    bank_path = tmp_path / "shannon128.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 128))
    model_path = tmp_path / "white.json"
    save_model(model_path, make_model("white", 128, sigma=1.0))
    out = tmp_path / "stat"
    code = main(
        ["stationary", "run", "--bank", str(bank_path), "--model", str(model_path),
         "--out", str(out), "--depth", "2", "--trials", "100", "--seed", "3"]
    )
    assert code == 0
    report = json.loads((out / "mc_report.json").read_text())
    assert report["pass"] is True
    assert report["trials"] == 100
    assert 0.0 < report["estimate"] <= report["bound"] + 3.0 * report["stderr"]
    assert "[OK]" in capsys.readouterr().out


@pytest.mark.parametrize("params", [
    # white: R(0) = N sigma^2; its spread of energies once overflowed from sigma 1e77 on,
    # writing "stderr": "inf" and "pass": true after an overflow warning
    {"sigma": 2.0**512 / (128 * 64 * math.sqrt(128))},
    # zero variance: refused just where (N mean)^2 overflows
    {"sigma": 0.0, "mean": 2.0**512 / 128},
], ids=["white", "zero-variance"])
@pytest.mark.parametrize("scale, code", [(1 - 1e-9, 0), (1 + 1e-9, 2)], ids=["under", "over"])
def test_model_reach_edge_is_two_to_the_512(params, scale, code, tmp_path, capsys):
    bank_path, model_path = tmp_path / "morlet128.json", tmp_path / "model.json"
    save_bank(bank_path, build_bank(morlet_mother(), 0, 128))
    model_path.write_text(json.dumps(_model("white", 128, **{k: v * scale for k, v in params.items()})))
    out = tmp_path / "mc"
    assert main(["stationary", "run", "--bank", str(bank_path), "--model", str(model_path),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        report = json.loads((out / "mc_report.json").read_text())
        assert math.isfinite(report["stderr"]) and report["pass"] is True and err == ""
    else:
        assert err.startswith(f"error: model file {model_path}: N (64 sqrt(R(0)) + |mean|) = 1.34078e+154 "
                              "is over 2^512")
        assert not out.exists()


@pytest.mark.parametrize("sigma", [1e-6, 1.0, 1e6])
def test_near_unit_ar1_model_is_accepted_at_every_scale(sigma, tmp_path, capsys):
    # rounding takes this density's minimum to -1.17e-5 at sigma 1e6, which was once refused
    # as a negative density (exit 2) while sigma 1 and 1e-6 were accepted
    model = make_model("ar1", 1024, rho=0.9999999999, sigma=sigma)
    assert np.min(model.density) >= 0.0
    bank_path, model_path = tmp_path / "shannon1024.json", tmp_path / "ar1.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 1024))
    save_model(model_path, model)
    code = main(["stationary", "run", "--bank", str(bank_path), "--model", str(model_path),
                 "--out", str(tmp_path / "mc"), "--trials", "20"])
    assert code in (0, 1) and (tmp_path / "mc" / "mc_report.json").exists()
    assert capsys.readouterr().err == ""


_SHANNON_128 = {"mother": {"name": "shannon", "params": {}}, "J": 0, "j_min": None, "N": 128}


def test_far_coarse_bank_is_built_and_validates_no_band(tmp_path, capsys):
    # 2^-1100 scales every frequency to zero: a bank, but one that certifies nothing
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({**_SHANNON_128, "J": -1100}))
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.endswith("validated band: none\n")


def test_bank_without_validated_band_fails_bank_check(tmp_path, capsys):
    # the one octave j=0 passes all three checks, but on N=32 it nowhere reproduces the full
    # dyadic sum: a bank that certifies nothing exits 1, as decay verify does, reports written
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({"mother": {"name": "morlet", "params": {}}, "J": 0, "j_min": 0, "N": 32}))
    out = tmp_path / "out"
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert stdout.count(": PASS (") == 3 and stdout.endswith("validated band: none\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "check_asymmetry.json", "check_littlewood_paley.json", "check_vanishing_order.json"]


def test_order_fit_through_an_underflowed_point_fails_bank_check(tmp_path, capsys):
    # a fit through this profile's 0.0 samples once raised ValueError, exit 2 for a well-formed
    # recipe; the order is now the closed form's, 1 here, so the check fails with reports written
    # and every number finite (decay verify refuses the same bank in the refusal table below)
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(_UNDERFLOWING))
    out = tmp_path / "out"
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(out)]) == 1
    assert "vanishing_order: FAIL (margin=-0.05)\n" in capsys.readouterr().out
    report = json.loads((out / "check_vanishing_order.json").read_text())
    numbers = [report["margin"], *(v for v in report["details"].values() if isinstance(v, float))]
    assert not report["passed"] and len(numbers) == 4 and all(map(math.isfinite, numbers))


def _gets_verdict(recipe, failed, err, tmp_path, capsys):
    # bank check prints exactly the FAIL lines ``failed`` and writes its three reports, and
    # decay verify refuses the bank with ``err``: both exit 1, the code of a failed condition;
    # with no FAIL line both pass, exit 0, and decay verify writes its table
    code = 1 if failed else 0
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(recipe))
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(tmp_path / "reports")]) == code
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ": FAIL (" in line] == list(failed)
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [
        "check_asymmetry.json", "check_littlewood_paley.json", "check_vanishing_order.json"]
    assert main(["decay", "verify", "--bank", str(bank_path), "--out", str(tmp_path / "decay")]) == code
    if failed:
        assert capsys.readouterr() == ("", err + "\n")
        assert not (tmp_path / "decay").exists()
    else:
        assert capsys.readouterr().err == "" and (tmp_path / "decay" / "decay.csv").exists()


_ORDER_FAILS = "vanishing_order: FAIL (margin=-0.05)"
_ORDER_REFUSED = "error: near-zero decay order 0.0000 below 0.05"


# each mother's order is the one its closed form gives, whatever the width or band
@pytest.mark.parametrize("recipe, failed, err", [
    # bank check once exited 2 on the order fit's ValueError, decay verify 1 on the sums
    ({"mother": {"name": "bandpass", "params": {"lo": 0.01, "hi": 0.03}}, "J": -9, "j_min": None, "N": 64},
     ["littlewood_paley: FAIL (margin=-1 at w=11)"],
     "error: squared sums exceed one (margin -1.000e+00 at w = 11.0)"),
    # profiles that underflow to 0.0 near zero: order 1 fails, order 2 passes
    ({"mother": {"name": "morlet_first_order", "params": {"center": 3.0, "width": 0.05}}, "J": 0,
      "j_min": None, "N": 256}, [_ORDER_FAILS], _ORDER_REFUSED),
    ({"mother": {"name": "morlet", "params": {"center": 2.8340951665991154, "width": 0.05}}, "J": -2,
      "j_min": -3, "N": 2048}, [], None),
    # wider, and still 0.0 at 14 of 25 geometric points of [2^-10, 2^-4]
    ({"mother": {"name": "morlet", "params": {"center": 2.8340951665991154, "width": 0.0731538287531215}},
      "J": -2, "j_min": -3, "N": 2048}, [], None),
    # narrow, but far from underflow: order 1 at every width
    ({"mother": {"name": "morlet_first_order", "params": {"center": 3.0, "width": 0.1}}, "J": 0,
      "j_min": None, "N": 256}, [_ORDER_FAILS], _ORDER_REFUSED),
    # a band close to zero: the profile is 0.0 on (-0.01, 0.01)
    ({"mother": {"name": "bandpass", "params": {"lo": 0.01, "hi": 0.02}}, "J": 0, "j_min": None, "N": 256},
     [], None),
], ids=["bandpass-on-the-fit-window", "first-order-morlet-underflowing", "morlet-underflowing",
        "morlet-underflowing-at-14-points", "first-order-morlet-narrow", "bandpass-near-zero"])
def test_bank_that_builds_gets_a_verdict(recipe, failed, err, tmp_path, capsys):
    _gets_verdict(recipe, failed, err, tmp_path, capsys)


def test_asymmetry_without_validated_band_checks_the_whole_grid(tmp_path, capsys):
    # octaves 5..6 put every frequency of N=64 past the Morlet bump: no band is validated, so
    # the asymmetry check falls back to 1..N/2-1, where the amplitudes underflow from w=2 on
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(
        {"mother": {"name": "morlet", "params": {}}, "J": 6, "j_min": 5, "N": 64}
    ))
    out = tmp_path / "out"
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "asymmetry: FAIL (margin=0 at w=2)\n" in stdout
    assert stdout.endswith("validated band: none\n")
    assert (out / "check_asymmetry.json").read_text() == (
        '{\n  "condition": "asymmetry",\n  "details": {\n    "band": [\n      1,\n      31\n'
        '    ],\n    "per_octave_ok": true\n  },\n  "margin": 0.0,\n  "passed": false,\n'
        '  "tolerance": 1e-12,\n  "witness_freq": 2.0\n}\n'
    )


def test_integral_float_sizes_are_accepted(tmp_path):
    # 128.0 is the size 128: the same reports as the int recipe, byte for byte
    outs = []
    for k, sizes in enumerate([{"j_min": -1}, {"J": 0.0, "N": 128.0, "j_min": -1.0}]):
        bank_path = tmp_path / f"bank{k}.json"
        bank_path.write_text(json.dumps({**_SHANNON_128, **sizes}))
        outs.append(tmp_path / f"out{k}")
        assert main(["bank", "check", "--bank", str(bank_path), "--out", str(outs[-1])]) == 0
    assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"kind": "white", "params": {"sigma": 1.0}, "N": 128.0}))
    model = load_model(model_path)
    assert type(model.n) is int and model.n == 128


@pytest.mark.parametrize(
    "below, code, verdict", [(False, 0, "OK"), (True, 1, "VIOLATED")], ids=["at-tolerance", "one-ulp-below"],
)
def test_decay_verdict_edge_is_the_slack_tolerance(below, code, verdict, shannon_bank_file,
                                                    tmp_path, capsys, monkeypatch):
    # the edge is _SLACK_TOL per unit of the input's energy ||f||^2
    def rows(sig, *args, **kwargs):
        slack = -_SLACK_TOL * energy(sig)
        slack = float(np.nextafter(slack, -1.0)) if below else slack
        return [DecayRow(n=2, empirical=1.0, bound=1.0 + slack, slack=slack)]

    monkeypatch.setattr(cli, "verify_decay", rows)
    out = tmp_path / "out"
    assert main(["decay", "verify", "--bank", shannon_bank_file, "--out", str(out)]) == code
    assert capsys.readouterr().out.splitlines()[-1].endswith(f"[{verdict}]")


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6], ids=["1", "1e-6", "1e6"])
def test_decay_verdicts_do_not_depend_on_the_signal_scale(scale, morlet_bank_file, tmp_path, capsys, monkeypatch):
    # energies and bounds scale with ||f||^2, and so does the tolerance: an absolute
    # 1e-8 once read layers 2-4 OK at 1e-6 with an r 1000x too large
    constants = compute_constants(load_bank(morlet_bank_file))
    sig = band_limited_signal(256, constants.band, np.random.default_rng(0))
    write_signal(tmp_path / "f.csv", Signal(scale * sig.samples.real, real=True))
    argv = ["decay", "verify", "--bank", morlet_bank_file, "--signal", str(tmp_path / "f.csv"), "--out"]
    for r, code, verdict in ((constants.r, 0, "[OK]"), (1000.0 * constants.r, 1, "[VIOLATED]")):
        monkeypatch.setattr(cli, "compute_constants", lambda bank, r=r: replace(constants, r=r))
        assert main([*argv, str(tmp_path / verdict)]) == code
        layers = capsys.readouterr().out.splitlines()[1:]
        assert [(line.split()[1], line.split()[-1]) for line in layers] == [
            (f"{n}:", verdict) for n in (2, 3, 4)
        ]


def test_decay_verify_depth_six_within_budget_runs(tmp_path, capsys):
    # layer 5 of the 7-octave N=128 profile holds 128 * 7^5 complex values, ~34 MB
    bank_path = tmp_path / "shannon128.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 128))
    out = tmp_path / "out"
    code = main(["decay", "verify", "--depth", "6", "--bank", str(bank_path), "--out", str(out)])
    assert code == 0
    rows = (out / "decay.csv").read_text().splitlines()
    assert rows[0] == "n,empirical,bound,slack"
    assert [int(row.split(",")[0]) for row in rows[1:]] == [2, 3, 4, 5, 6]
    for row in rows[1:]:
        _, empirical, bound, _ = map(float, row.split(","))
        assert 0.0 < empirical <= bound
    assert "layer 6:" in capsys.readouterr().out


# main() in a child process whose address space is capped at 2 GiB, so an
# oversized grid that slipped past its refusal fails there at once
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from scatdecay.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "bank_n, j_min, model_n, message",
    [
        (2**31, None, None, "a bank of 31 octaves on N=2147483648 needs 1,065,151,889,408 bytes"),
        (2048, -10**6, None, "a bank of 1000001 octaves on N=2048 needs 32,768,032,768 bytes"),
        (128, None, 2**31, "a model on N=2147483648 needs 171,798,708,224 bytes"),
    ],
    ids=["bank-points", "bank-octaves", "model-points"],
)
def test_oversized_grid_refused_before_any_allocation(bank_n, j_min, model_n, message, tmp_path):
    bank_path, model_path, out = tmp_path / "bank.json", tmp_path / "model.json", tmp_path / "out"
    bank_path.write_text(json.dumps({"mother": {"name": "morlet"}, "J": 0, "j_min": j_min, "N": bank_n}))
    if model_n is None:
        argv = ["bank", "check", "--bank", str(bank_path), "--out", str(out)]
    else:
        model_path.write_text(json.dumps({"kind": "white", "N": model_n}))
        argv = ["stationary", "run", "--bank", str(bank_path), "--model", str(model_path), "--out", str(out)]
    src = os.path.dirname(os.path.dirname(scatdecay.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == f"error: {message} at once, over the budget of 1,073,741,824\n"
    assert not out.exists()


def test_demo_shifts_centroid_down_and_is_byte_stable(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["demo", "modulus-shift", "--out", str(out)]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["centroid_modulus"] < summary["centroid_filtered"]
    # the modulus is pointwise, so it cannot change the signal's energy
    assert summary["energy_modulus"] == pytest.approx(summary["energy_filtered"], rel=1e-15)
    assert "shifted down" in capsys.readouterr().out


def test_demo_reads_its_signal_from_a_file(tmp_path, capsys):
    # the default chirp given as a file runs the same demo, byte for byte
    assert main(["demo", "modulus-shift", "--out", str(tmp_path / "default")]) == 0
    default_stdout = capsys.readouterr().out
    write_signal(tmp_path / "chirp.csv", cli._default_chirp(512))
    out = tmp_path / "file"
    assert main(["demo", "modulus-shift", "--signal", str(tmp_path / "chirp.csv"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == default_stdout
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "default")


def _scatter_files(bank_file, signal_file, out, lowpass):
    assert main(["scatter", "run", "--bank", bank_file, "--signal", signal_file,
                 "--out", str(out), "--depth", "3", "--lowpass", lowpass]) == 0
    # the manifest records the bank recipe, which names the mother
    return {name: data for name, data in _tree_bytes(out).items() if name != "manifest.json"}


def test_scatter_octave_bandpass_bank_gets_the_tight_pair(shannon_bank_file, signal_file, tmp_path):
    # bandpass(1, 2) is the shannon profile under another name, so it partitions frequency too
    bank_path = tmp_path / "bandpass12.json"
    save_bank(bank_path, build_bank(bandpass_mother(1.0, 2.0), 0, 256))
    shannon = _scatter_files(shannon_bank_file, signal_file, tmp_path / "shannon", "tight")
    for lowpass in ("tight", "auto"):
        assert _scatter_files(str(bank_path), signal_file, tmp_path / lowpass, lowpass) == shannon


def test_scatter_shannon_with_uncovered_bins_is_not_tight(signal_file, tmp_path, capsys):
    # octaves -5..0 cover 1 < |w| <= 64, so bins 65..127 belong to no filter
    bank_path = tmp_path / "shannon-coarse.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 256, j_min=-5))
    auto = _scatter_files(str(bank_path), signal_file, tmp_path / "auto", "auto")
    assert auto == _scatter_files(str(bank_path), signal_file, tmp_path / "gaussian", "gaussian")
    out = tmp_path / "tight"
    code = main(["scatter", "run", "--bank", str(bank_path), "--signal", signal_file,
                 "--out", str(out), "--lowpass", "tight"])
    assert code == 2
    assert "shannon" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Every CLI refusal, one row each.  A row holds its bank, model and signal
# payloads inline (a dict is written as JSON, a string as it is), the argv, the
# exit code and the whole stderr: the single "error: ..." line, or argparse's
# last line after the subcommand's usage.  Placeholders {bank}, {model},
# {signal} and {out} name the row's files.  Unless a row says `work`, it is
# refused before any check, constant or simulation is computed.  No row forms a
# layer or leaves an --out behind.  Every exit-2 "error: ..." names the row's bank,
# model or signal file, unless the row says `unnamed`: a refusal of a flag, or of
# scatter's or a stationary run's inputs taken together.


@dataclass(frozen=True)
class Refusal:
    argv: str
    code: int
    err: str
    bank: dict | str | bytes | None = None
    model: dict | str | None = None
    signal: str | bytes | None = None
    meta: str | bytes | None = None
    work: bool = False
    unnamed: bool = False
    id: str | None = None


def _bank(name, J=0, N=256, j_min=None, **params):
    return {"mother": {"name": name, "params": params}, "J": J, "j_min": j_min, "N": N}


def _model(kind, N, **params):
    return {"kind": kind, "params": params, "N": N}


_SHANNON, _MORLET, _WHITE_128 = _bank("shannon"), _bank("morlet"), _model("white", 128, sigma=1.0)
_SIGNAL_256, _SIGNAL_128 = "1\n" * 256, "1\n" * 128
_RAW_16 = np.zeros(16, dtype="<f8").tobytes()
_CHECK = "bank check --bank {bank} --out {out}"
_STATIONARY = "stationary run --bank {bank} --model {model} --out {out}"
_SCATTER = "scatter run --bank {bank} --signal {signal} --out {out}"
# every refusal of a file's content names the file, as "<what> file <path>: <reason>"
_BANK_FILE, _MODEL_FILE = "error: bank file {bank}: ", "error: model file {model}: "
_SIGNAL_FILE = "error: signal file {signal}: "
_NOT_A_FLOAT = "float() argument must be a string or a real number, not "
_TOO_LONG = "int too large to convert to float"
_NOT_A_MAPPING = "scatdecay.stationary.make_model() argument after ** must be a mapping, not "
_NO_DRIFT = ("error: first-moment rate c = 0.000e+00 is not positive; the bank has no strict "
             "analytic preference and the drift argument collapses")
_NEAR_ZERO = "error: near-zero decay order 0.0000 below 0.05"
_ZERO_ENERGY = ("signal energy 0 is too small to check: its verdicts' tolerance, 1e-08 of it, is below float64's "
                "smallest normal number; scaling the signal by a power of two moves no verdict")
# a narrow first-order Morlet whose profile underflows to 0.0 at 14 of 25 geometric points of [2^-10, 2^-4]
_UNDERFLOWING = _bank("morlet_first_order", J=-2, N=2048, j_min=-3, center=2.8340951665991154,
                      width=0.0731538287531215)
_NO_BAND = ("error: bank has no validated band: the retained octaves nowhere both reproduce the full "
            "dyadic sum and carry octave mass")
_REQUIRED = "scatdecay {}: error: the following arguments are required: {}"
_REQUIRED_FLAGS = {"bank check": "--bank b.json --out {out}", "decay verify": "--bank b.json --out {out}",
                   "scatter run": "--bank b.json --signal f.csv --out {out}",
                   "stationary run": "--bank b.json --model m.json --out {out}"}


def _bad_amplitude(amplitude):
    # float64 cannot square these: they once wrote "max_sum": "inf" or an unnamed refusal
    return Refusal(_CHECK, 2, _BANK_FILE + f"bandpass amplitude {amplitude:g} is outside float64: its "
                   "octave sums reach amplitude^2 * 1, which is not finite",
                   bank=_bank("bandpass", lo=1, hi=2, amplitude=amplitude), id=f"amplitude-{amplitude:g}")


def _bad_model(model, reason, id):
    return Refusal(_STATIONARY, 2, _MODEL_FILE + reason, bank=_SHANNON, model=model, id=id)


def _bad_size(id, shown, **sizes):
    # int() once truncated these: N=128.7, J=0.9 ran as N=128, J=0 and passed
    return Refusal(_CHECK, 2, _BANK_FILE + f"sizes must be integers, got {shown}",
                   bank={**_SHANNON_128, **sizes}, id=id)


_REFUSALS = {
    # required flags are the subcommand parser's to refuse, a missing and an empty one alike
    "test_missing_bank_flag_is_usage_error": [
        Refusal("bank check --out {out}", 2, _REQUIRED.format("bank check", "--bank")),
    ],
    "test_missing_file_flag_is_usage_error": [
        Refusal("bank check --bank {bank}", 2, _REQUIRED.format("bank check", "--out"),
                bank=_SHANNON, id="bank-check-out"),
        Refusal("scatter run --bank {bank} --out {out}", 2, _REQUIRED.format("scatter run", "--signal"),
                bank=_SHANNON, id="scatter-signal"),
        Refusal("stationary run --bank {bank} --out {out}", 2, _REQUIRED.format("stationary run", "--model"),
                bank=_SHANNON, id="stationary-model"),
    ],
    "test_empty_path_flag_is_usage_error": [
        Refusal(f"{command} {flags}", 2, f"scatdecay {command}: error: argument {flag}: must not be empty",
                bank=_SHANNON, id=f"{command} {flag}")
        for command, flags, flag in (
            ("bank check", "--bank= --out {out}", "--bank"),
            ("bank check", "--bank {bank} --out=", "--out"),
            ("scatter run", "--bank {bank} --signal= --out {out}", "--signal"),
            ("stationary run", "--bank {bank} --model= --out {out}", "--model"),
            ("demo modulus-shift", "--out=", "--out"),
            # optional paths too: an empty --signal was once read as none and synthesized an input
            ("decay verify", "--bank {bank} --signal= --out {out}", "--signal"),
            ("demo modulus-shift", "--signal= --out {out}", "--signal"),
        )
    ],
    "test_malformed_bank_file_is_parse_error": [
        Refusal(_CHECK, 2, _BANK_FILE + "Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)", bank="{this is not json"),
    ],
    # json's own refusals once named no file, so a stationary run did not say which recipe failed,
    # and a bank nested past the parser's depth ended in a RecursionError traceback, exit 1
    "test_recipe_file_that_is_not_json_is_named": [
        Refusal(_CHECK, 2, _BANK_FILE + "maximum recursion depth exceeded while decoding "
                "a JSON array from a unicode string", bank="[" * 200_000, id="deep-bank"),
        Refusal(_CHECK, 2, _BANK_FILE + "'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte", bank=b"\xff\xfe", id="non-utf-8-bank"),
        Refusal(_STATIONARY, 2, _MODEL_FILE + "Expecting property name enclosed in double "
                "quotes: line 1 column 19 (char 18)", bank=_SHANNON_128, model='{"kind": "white", ',
                id="broken-model"),
    ],
    "test_unknown_mother_is_parse_error": [
        Refusal(_CHECK, 2, _BANK_FILE + "unknown mother wavelet 'hann'", bank=_bank("hann", N=64)),
    ],
    "test_bandpass_outside_window_is_parse_error": [
        Refusal(_CHECK, 2, _BANK_FILE + "band (20, 40] leaves the converged window [1e-08, 16] where octave "
                "sums are taken", bank=_bank("bandpass", lo=20, hi=40)),
    ],
    # a NaN floor once pruned nothing and an infinite one all of layer 1, and
    # both reached manifest.json as literals that JSON does not have
    "test_scatter_run_refuses_a_non_finite_or_negative_floor": [
        Refusal(f"{_SCATTER} --prune-eps={eps}", 2, "error: prune_eps must be finite and nonnegative",
                bank=_SHANNON, signal=_SIGNAL_256, unnamed=True, id=eps)
        for eps in ("nan", "inf", "-inf", "-1e-9")
    ],
    "test_scatter_run_over_budget_exits_three": [
        Refusal(f"{_SCATTER} --depth 7", 3, "error: depth 7 with 8 octaves per node on N=256 needs "
                "19,634,135,040 bytes at once, over the budget of 1,073,741,824", bank=_SHANNON,
                signal=_SIGNAL_256),
    ],
    "test_scatter_tight_lowpass_needs_shannon": [
        Refusal(f"{_SCATTER} --lowpass tight", 2, "error: the tight pair is only defined for the shannon bank",
                bank=_MORLET, signal=_SIGNAL_256, unnamed=True),
    ],
    "test_decay_verify_degenerate_bank_exits_one": [
        Refusal("decay verify --bank {bank} --out {out}", 1, "error: degenerate octave: c^2 = "
                "4.444444444444e-01 reaches C = 4.444444444444e-01, so the width contraction a is unbounded",
                bank=_bank("bandpass", lo=1.5 - 1e-9, hi=1.5), work=True),
    ],
    # no integer of N=256 reaches (1.3, 1.3000000001], so every one is a hole and none is in the band
    "test_decay_verify_massless_bank_exits_one": [
        Refusal("decay verify --bank {bank} --out {out}", 1, _NO_BAND,
                bank=_bank("bandpass", lo=1.3, hi=1.3000000001), work=True),
    ],
    # octaves -6..-3 reach (2.8, 3.8] only above N/2 = 8: the octave sums at 1 and 2 miss nothing,
    # but carry nothing, and once made a band 1..2 whose window divided by m_scale = 0
    "test_decay_verify_bank_without_retained_mass_exits_one": [
        Refusal(argv, 1, _NO_BAND, bank=_bank("bandpass", J=-3, N=16, lo=2.8, hi=3.8),
                model=_model("white", 16, sigma=1.0), work=True, id=argv.split()[0])
        for argv in ("decay verify --bank {bank} --out {out}", _STATIONARY)
    ],
    # the band is 3..3, which holds mass, but the curvature grid's points near 1.5 all miss
    # a band of width 2e-4, so the window once divided by m_scale = 0
    "test_decay_verify_mass_the_curvature_grid_misses_exits_one": [
        Refusal("decay verify --bank {bank} --out {out}", 1, "error: no octave mass for j <= 0 anywhere on the "
                "curvature grid [2^-8, 128], so the initial window cannot be scaled",
                bank=_bank("bandpass", lo=1.4999, hi=1.5001, amplitude=1e-5), work=True),
    ],
    # an order fit through 0.0 once raised ValueError, exit 2 as for malformed input; the
    # order is now the closed form's, which no sample of the profile enters
    "test_order_fit_through_an_underflowed_point_exits_one": [
        Refusal(argv, 1, _NEAR_ZERO, bank=_UNDERFLOWING, model=_model("white", 2048, sigma=1.0), work=True,
                id=argv.split()[0])
        for argv in ("decay verify --bank {bank} --out {out}", _STATIONARY)
    ],
    "test_bad_depth_or_trials_refused_before_any_work": [
        Refusal(f"{argv} --bank {{bank}} --out {{out}}", 2, f"error: {message}", bank=_SHANNON_128,
                model=_WHITE_128, unnamed=True, id=f"words{k}-{message}")
        for k, (argv, message) in enumerate([
            ("decay verify --depth 1", "the contraction argument starts at layer 2"),
            ("decay verify --depth -1", "the contraction argument starts at layer 2"),
            ("stationary run --model {model} --depth 1 --trials 20000",
             "the contraction argument starts at layer 2"),
            ("stationary run --model {model} --depth 0", "layer must be at least 1"),
            ("stationary run --model {model} --trials 1", "need at least two trials for a standard error"),
            ("stationary run --model {model} --seed -1", "seed must be a nonnegative integer"),
            ("decay verify --seed -1", "seed must be a nonnegative integer"),
        ])
    ],
    # a NaN density once passed every model check and wrote a NaN mc_report.json;
    # a wrongly typed or overflowing parameter once ended in a traceback
    "test_bad_model_file_refused_before_any_work": [
        _bad_model(_model("white", 256, sigma=math.nan), "values must be finite", "sigma-nan"),
        # a negative N was once refused with numpy's "negative dimensions are not allowed", or for
        # ar1 as "got 0"
        *(_bad_model(_model(kind, -1), "sample count must be a power of two >= 2, got -1", f"{kind}-N--1")
          for kind in ("white", "ar1")),
        _bad_model(_model("white", 100), "sample count must be a power of two >= 2, got 100",
                   "length-100"),
        # the size is refused before the parameters, so a recipe with two faults names its size; these
        # once named the parameter
        *(_bad_model(_model(kind, 100, **params), "sample count must be a power of two >= 2, got 100",
                     f"length-100-{id}")
          for kind, params, id in (("ar1", {"rho": 2.0}, "rho"), ("white", {"foo": 1}, "foo"),
                                   ("filtered_noise", {"filter": {"name": "band", "lo": 6, "hi": 3}}, "band"))),
        # the density sums to inf; sigma^2 itself overflows and once raised OverflowError
        _bad_model(_model("white", 128, sigma=1e154), "values must be finite", "sigma-1e154"),
        _bad_model(_model("white", 128, sigma=1e200), "values must be finite", "sigma-1e200"),
        # a positive sigma whose square underflows once ran as a zero model: estimate 0, [OK]
        *(_bad_model(_model("white", 128, sigma=sigma), f"sigma {sigma:g} is positive, but its square is below "
                     "float64's smallest normal number", f"sigma-{sigma:g}") for sigma in (1e-170, 1e-160)),
        # a trial's squared spectrum could overflow; the zero-variance model once warned of
        # overflow in square and exited 0
        *(_bad_model(_model("white", 128, **params), f"N (64 sqrt(R(0)) + |mean|) = {reach} is over 2^512 = "
                     "1.34078e+154: the squared spectrum of a Monte Carlo trial could overflow float64", id)
          for params, reach, id in (({"sigma": 1e150}, "9.26819e+154", "sigma-1e150"),
                                    ({"sigma": 0.0, "mean": 1e200}, "1.28e+202", "zero-variance-mean-1e200"))),
        # int() once truncated a size: N=128.9 ran at 128
        _bad_model(_model("white", 128.9), "sizes must be integers, got 128.9", "N-128.9"),
        _bad_model(_model("white", True), "sizes must be integers, got True", "N-true"),
        # a non-finite mean once wrote "estimate": "nan" and exited 1
        _bad_model(_model("white", 256, mean=math.nan), "values must be finite", "mean-nan"),
        _bad_model(_model("white", 256, mean=math.inf), "values must be finite", "mean-inf"),
        # mean + x once rounded x away: estimate=0 (stderr 0) and [OK] on a Shannon bank
        _bad_model(_model("white", 256, mean=1e20), "mean 1e+20 is more than 2^27 times the standard "
                   "deviation 16: float64 cannot hold the fluctuation beside it", "mean-1e20"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "band", "lo": 3, "hi": 3}),
                   "need 0 <= lo < hi, got (3.0, 3.0)", "band-lo-hi"),
        _bad_model(_model("white", 256, sigma=[1]), _NOT_A_FLOAT + "'list'", "sigma-list"),
        _bad_model(_model("white", 256, sigma=None), _NOT_A_FLOAT + "'NoneType'",
                   "sigma-null"),
        _bad_model(_model("white", 256, mean={}), _NOT_A_FLOAT + "'dict'", "mean-object"),
        _bad_model(_model("ar1", 256, rho=[0.5]), _NOT_A_FLOAT + "'list'", "rho-list"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "gaussian_lowpass", "a": [2]}),
                   _NOT_A_FLOAT + "'list'", "filter-a-list"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "gaussian_lowpass"}),
                   "'a'", "filter-without-a"),
        _bad_model(_model("white", 256, sigma=10**400), _TOO_LONG, "sigma-401-digits"),
        # params must be an object, as a bank mother's are: a list of pairs once ran, and a string was
        # refused with dict()'s own message, naming no file
        *(_bad_model({"kind": "white", "params": params, "N": 256}, _NOT_A_MAPPING + shown,
                     f"params-{shown}")
          for params, shown in (([["sigma", 2.0]], "list"), ("sigma", "str"), (None, "NoneType"))),
        # a key its kind or filter does not read was once ignored: "rh0" ran an ar1 model with rho = 0
        *(_bad_model(_model(kind, 256, **params), f"{what} takes no parameter {key!r}", f"{kind}-{key}")
          for kind, params, what, key in (
              ("white", {"foo": 1}, "model kind 'white'", "foo"),
              ("ar1", {"rh0": 0.5}, "model kind 'ar1'", "rh0"),
              ("filtered_noise", {"filter": {"name": "band", "lo": 3, "hi": 6}, "rho": 0.5},
               "model kind 'filtered_noise'", "rho"),
              ("filtered_noise", {"filter": {"name": "gaussian_lowpass", "a": 2.0, "lo": 1}},
               "filter 'gaussian_lowpass'", "lo"),
              ("filtered_noise", {"filter": {"name": "band", "lo": 3, "hi": 6, "amp": 2.0}}, "filter 'band'",
               "amp"),
          )),
    ],
    # float() once read these as 1.0, 0.0 or 2.0, and the run exited 0
    "test_recipe_number_refuses_a_bool_or_a_string": [
        *(Refusal(_CHECK, 2, _BANK_FILE + f"bad parameters for mother {name!r}: parameter {key!r} must be a number, "
                  "got True", bank=_bank(name, **params, **{key: True}), id=f"{name}-{key}")
          for name, params, key in (("morlet", {}, "center"), ("morlet", {}, "width"),
                                    ("bandpass", {"hi": 2}, "lo"))),
        *(_bad_model(_model(kind, 256, **params), f"parameter {key!r} must be a number, got {value!r}",
                     f"{kind}-{key}-{value!r}")
          for kind, params, key, value in (
              ("white", {"sigma": True}, "sigma", True), ("white", {"mean": True}, "mean", True),
              ("ar1", {"rho": False}, "rho", False), ("white", {"sigma": "2"}, "sigma", "2"),
              ("filtered_noise", {"filter": {"name": "gaussian_lowpass", "a": True}}, "a", True),
          )),
    ],
    # a key no reader takes was once ignored: "j_mn" ran the default j_min, "parms" a default-width
    # Morlet, and "sigm" the default sigma, each exiting 0
    "test_unknown_recipe_key_is_refused": [
        Refusal(_CHECK, 2, _BANK_FILE + "bank recipe takes no parameter 'j_mn'", bank={**_MORLET, "j_mn": -3},
                id="bank-j_mn"),
        Refusal(_CHECK, 2, _BANK_FILE + "mother takes no parameter 'parms'",
                bank={**_MORLET, "mother": {"name": "morlet", "parms": {"width": 0.5}}}, id="mother-parms"),
        _bad_model({**_WHITE_128, "sigm": 5}, "model recipe takes no parameter 'sigm'", "model-sigm"),
        Refusal(_CHECK, 2, _BANK_FILE + "mother must be an object, got 'morlet'", bank={**_MORLET, "mother": "morlet"},
                id="mother-string"),
    ],
    "test_non_integral_bank_size_refused_before_any_work": [
        _bad_size("N-128.7", "128.7", N=128.7), _bad_size("J-0.9", "0.9", J=0.9),
        _bad_size("j_min--0.5", "-0.5", j_min=-0.5), _bad_size("N-true", "True", N=True),
        _bad_size("N-string", "'128'", N="128"),
    ],
    # N=2 is a legal signal size, but its grid has no frequency for the bank to validate
    "test_bank_without_inner_frequency_refused_by_its_size": [
        Refusal(_CHECK, 2, _BANK_FILE + "no frequency lies strictly between 0 and N/2 on N=2: a bank needs N >= 4",
                bank=_bank("morlet", N=2)),
    ],
    # the first three once ended in an OverflowError or ZeroDivisionError traceback, and
    # a width whose square overflows must not raise one either; test_filterbank.py sweeps
    # octaves and widths through the builders themselves
    "test_out_of_range_bank_recipe_refused": [
        Refusal(_CHECK, 2, _BANK_FILE + _OCTAVES_OFF_FLOAT64.format(int(1e300), int(1e300) - 7),
                bank=_bank("morlet", J=1e300), id="J-too-large"),
        Refusal(_CHECK, 2, _BANK_FILE + _OCTAVES_OFF_FLOAT64.format(-3000000000, -3000000007),
                bank=_bank("shannon", J=-3000000000), id="j_min-too-small"),
        # these once warned "overflow encountered in square", then exited 1 or named no input
        *(Refusal(_CHECK, 2, _BANK_FILE + _OCTAVES_OFF_FLOAT64.format(j, j - 7), bank=_bank("morlet", J=j),
                  id=f"morlet-J-{j}") for j in (505, 1016)),
        Refusal(_CHECK, 2, _BANK_FILE + "Morlet width 1e-200 is too narrow for float64: (16 + |center|)^2 / "
                "(2 width^2) overflows", bank=_bank("morlet", width=1e-200), id="width-too-small"),
        Refusal(_CHECK, 2, _BANK_FILE + "Morlet bump at 3 of width 1e+200 reaches past 16, where octave sums are "
                "truncated; need |center| + 8.72 * width <= 16", bank=_bank("morlet", width=1e200),
                id="width-too-large"),
        # Morlet widths too narrow for the window's 16 or the bank's largest argument 2^J * N/2: they
        # once printed RuntimeWarnings, then exited 2 naming no input, or exited 1; the mother refuses
        # a bump whose exponent overflows on the window, and the bank what overflows on its grid
        *(Refusal(_CHECK, 2, _BANK_FILE + "Morlet width 1e-153 is too narrow for float64: (16 + |center|)^2 / "
                  "(2 width^2) overflows", bank=_bank("morlet", J=0, N=N, width=1e-153),
                  id=f"width-1e-153-J0-N{N}")
          for N in (256, 16)),
        Refusal(_CHECK, 2, _BANK_FILE + "mother 'morlet' with {{'center': 3.0, 'width': 1e-152}} overflows "
                "float64 in a bank of J=5 on N=256", bank=_bank("morlet", J=5, N=256, width=1e-152),
                id="width-1e-152-J5-N256"),
        *(_bad_amplitude(amplitude) for amplitude in (1e308, 1e200, math.inf, math.nan)),
        *(Refusal(_CHECK, 2, _BANK_FILE + f"bad parameters for mother {mother!r}: {_TOO_LONG}",
                  bank=_bank(mother, **params, **{param: 10**400}), id=f"{param}-401-digits")
          for mother, params, param in (("morlet", {}, "center"), ("morlet", {}, "width"),
                                        ("bandpass", {"lo": 1, "hi": 2}, "amplitude"))),
    ],
    # N=4096 keeps 12 octaves; layer 5 of the profile holds 4096 * 12^5 complex values
    "test_decay_verify_over_budget_refused_before_any_work": [
        Refusal("decay verify --bank {bank} --out {out} --depth 6", 3, "error: depth 6 with 12 octaves per node "
                "on N=4096 needs 16,307,453,952 bytes at once, over the budget of 1,073,741,824",
                bank=_bank("morlet", N=4096)),
    ],
    "test_stationary_over_budget_refused_before_any_work": [
        Refusal(f"{_STATIONARY} --trials 1000000000", 3, "error: layer 2 over 1000000000 trials with 7 "
                "octaves per node on N=128 needs 8,000,014,336 bytes at once, over the budget of 1,073,741,824",
                bank=_SHANNON_128, model=_WHITE_128),
    ],
    # depth 6 at N=4096: 2 * 4096 * sum_{k <= 6} 12^k complex values, ~400 GB
    "test_scatter_run_over_budget_forms_no_layer": [
        Refusal(f"{_SCATTER} --depth 6", 3, "error: depth 6 with 12 octaves per node on N=4096 needs "
                "426,958,782,464 bytes at once, over the budget of 1,073,741,824", bank=_bank("morlet", N=4096),
                signal="1\n" * 4096),
    ],
    # a finite signal whose energy overflows float64 once wrote Infinity into manifest.json and
    # exited 0, and at 1e308 printed RuntimeWarnings before an error that named no input
    "test_signal_whose_energy_overflows_is_refused": [
        Refusal(_SCATTER, 2, _SIGNAL_FILE + f"signal has a sample of modulus {value:g}, over 2^510 / "
                "sqrt(N) = 2.96273e+152 at N=128: its energies would overflow float64", bank=_SHANNON_128,
                signal=f"{value!r}\n" * 128, id=f"{value:g}")
        for value in (1e160, 1e308)
    ],
    # read_signal's overflow bound assumes octave sums <= 1: at amplitude 1e150 this
    # signal once overflowed the layers with RuntimeWarnings and exited 2 naming no input
    "test_scatter_run_refuses_an_inflated_bank": [
        Refusal(_SCATTER, 1, f"error: squared sums exceed one (margin {margin} at w = 2.0)",
                bank=_bank("bandpass", N=128, lo=1, hi=2, amplitude=amplitude),
                signal="10000000000.0\n" * 64 + "-10000000000.0\n" * 64, work=True, id=name)
        for name, amplitude, margin in (("1e150", 1e150, "-5.000e+299"),
                                        ("1.1-sqrt2", 1.1 * math.sqrt(2), "-2.100e-01"))
    ],
    # a field without "=" once exited 2 with dict's own message, naming no file; a complex of
    # 2 or -1 was read as complex, and N=-16 reached the payload size check
    "test_malformed_raw_sidecar_refused": [
        Refusal(_SCATTER, 2, _SIGNAL_FILE + f"malformed sidecar {{signal}}.meta: {meta!r}", bank=_SHANNON_128,
                signal=_RAW_16, meta=meta + "\n", id=meta)
        for meta in ("N16;complex=0", "N=16;complex=2", "N=16;complex=-1", "N=-16;complex=0")
    ],
    # a sidecar that is not UTF-8 was once refused with the codec's bare message, naming no file;
    # its byte is read as a lone surrogate, which the complex field does not take
    "test_sidecar_that_is_not_utf_8_is_named": [
        Refusal(_SCATTER, 2, _SIGNAL_FILE + "malformed sidecar {signal}.meta: 'N=16;complex=0\\udcff'",
                bank=_SHANNON_128, signal=_RAW_16, meta=b"N=16;complex=0\xff\n"),
    ],
    # numpy warns on a CSV with no data line before it returns no rows, and under -W error that
    # warning once ended scatter run in a traceback, exit 1
    "test_signal_csv_without_samples_is_refused": [
        Refusal(argv, 2, _SIGNAL_FILE + "signal CSV holds no samples", bank=_MORLET, signal=signal,
                id=f"{argv.split()[0]}-{id}")
        for argv in (_SCATTER, "decay verify --bank {bank} --signal {signal} --out {out}",
                     "demo modulus-shift --signal {signal} --out {out}")
        for id, signal in (("empty", ""), ("comments", "# no samples\n\n"))
    ],
    # loadtxt's, the column count's and the sample count's refusals once named no file
    "test_signal_file_refusal_names_it": [
        Refusal(_SCATTER, 2, _SIGNAL_FILE + message, bank=_MORLET, signal=signal, id=id)
        for id, signal, message in (
            ("not-a-float", "1\nabc\n", "could not convert string 'abc' to float64 at row 1, "
             "column 1."),
            ("three-columns", "1,2,3\n" * 4, "signal CSV must have 1 or 2 columns, got 3"),
            ("three-rows", "1\n" * 3, "sample count must be a power of two >= 2, got 3"),
        )
    ],
    "test_decay_verify_wrong_signal_length_refused_before_constants": [
        Refusal("decay verify --bank {bank} --signal {signal} --out {out}", 2,
                _SIGNAL_FILE + "signal length 128 does not match bank grid 256", bank=_MORLET, signal=_SIGNAL_128),
    ],
    # the constants certify nothing for these inputs, so they are refused before the constants; they once
    # named no file.  A cosine of amplitude 1e-300, whose squared coefficients underflow, was once called
    # zero; an all-zero signal is now refused as it is, by its energy.  Cosines of amplitude 1e-150 and 1e-158, whose deep layer energies are subnormal, passed
    "test_decay_verify_bad_signal_refused_before_constants": [
        Refusal("decay verify --bank {bank} --signal {signal} --out {out}", 2, _SIGNAL_FILE + message,
                bank=_MORLET, signal=signal, id=id)
        for id, signal, message in (
            ("complex", "1,1\n" * 256, "decay verification needs a real signal"),
            ("zero", "0\n" * 256, _ZERO_ENERGY),
            ("signed-zero", "0.0\n-0.0\n" * 128, _ZERO_ENERGY),
            *((id, "".join(f"{amplitude * math.cos(2 * math.pi * 5 * k / 256)!r}\n" for k in range(256)),
               f"signal energy {energy} is too small to check: its verdicts' tolerance, 1e-08 of it, is below "
               "float64's smallest normal number; scaling the signal by a power of two moves no verdict")
              for id, amplitude, energy in (("tiny", 1e-300, "0"), ("tiny-1e-150", 1e-150, "5e-301"),
                                            ("tiny-1e-158", 1e-158, "5e-317"))),
            ("out-of-band", "".join(f"{math.cos(2 * math.pi * k / 256)!r}\n" for k in range(256)),
             "signal has spectral mass outside the validated band [3, 127]"),
        )
    ],
    # the demo builds its bank on the signal's N; a refusal of it once named no file
    "test_demo_signal_too_short_for_its_bank_is_named": [
        Refusal("demo modulus-shift --signal {signal} --out {out}", 2, _SIGNAL_FILE + "no frequency lies strictly "
                "between 0 and N/2 on N=2: a bank needs N >= 4", signal="1\n2\n"),
    ],
    # reported by the subcommand's parser, whose usage line lists the flags it takes
    # with every required flag given: the parser refuses the extra one before any file is read
    "test_unread_flags_are_rejected": [
        Refusal(f"{command} {_REQUIRED_FLAGS[command]} {flags}", 2,
                f"scatdecay {command}: error: unrecognized arguments: {flags}", id=f"{command} {flags.split()[0]}")
        for command, flags in (("bank check", "--seed 1"), ("bank check", "--depth 3"), ("scatter run", "--seed 1"),
                               ("scatter run", "--tol 1e-6"), ("stationary run", "--tol 1e-6"),
                               ("bank check", "--tol 1e-9"), ("decay verify", "--tol 1e-8"))
    ],
    "test_stationary_grid_mismatch_is_parse_error": [
        Refusal(_STATIONARY, 2, "error: bank grid 256 does not match model grid 128", bank=_SHANNON,
                model=_WHITE_128, unnamed=True),
    ],
    "test_refused_run_leaves_no_out": [
        Refusal(f"{_SCATTER} --lowpass tight", 2, "error: the tight pair is only defined for the shannon bank",
                bank=_MORLET, signal=_SIGNAL_256, unnamed=True, id="tight-on-morlet"),
        Refusal(_SCATTER, 2, "error: signal, bank and lowpass must share one grid", bank=_SHANNON,
                signal=_SIGNAL_128, unnamed=True, id="scatter-grid"),
        Refusal("decay verify --bank {bank} --out {out}", 1, _NO_DRIFT, bank=_bank("even_morlet"), work=True,
                id="verify-even"),
        Refusal("decay verify --bank {bank} --out {out}", 1, _NEAR_ZERO, bank=_bank("morlet_first_order"),
                work=True, id="verify-first-order"),
        Refusal(_STATIONARY, 1, _NO_DRIFT, bank=_bank("even_morlet"), model=_model("white", 256, sigma=1.0),
                work=True, id="stationary-even"),
        Refusal(_STATIONARY, 1, _NEAR_ZERO, bank=_bank("morlet_first_order"),
                model=_model("white", 256, sigma=1.0), work=True, id="stationary-first-order"),
        Refusal("decay verify --bank {bank} --signal {signal} --out {out}", 2,
                _SIGNAL_FILE + "signal length 128 does not match bank grid 256", bank=_SHANNON, signal=_SIGNAL_128,
                id="verify-signal-grid"),
        Refusal("demo modulus-shift --scale 5 --out {out}", 2, "error: scale 5 outside bank range [-8, 0]",
                unnamed=True, id="demo-scale"),
    ],
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the request was refused")


def _refuse(row, tmp_path, capsys, monkeypatch):
    if not row.work:
        for name in ("compute_constants", "mc_layer_energy", "check_littlewood_paley", "check_asymmetry",
                     "estimate_vanishing_order"):
            monkeypatch.setattr(cli, name, _no_work)
        # the library's own check too, which scatter and compute_constants reach through filterbank
        monkeypatch.setattr(filterbank, "check_littlewood_paley", _no_work)
    monkeypatch.setattr(scattering, "_layer_moduli", _no_work)
    files = {"out": str(tmp_path / "out")}
    for name, payload in (("bank", row.bank), ("model", row.model), ("signal", row.signal),
                          ("signal.meta", row.meta)):
        if payload is not None:
            files[name] = str(tmp_path / name)
            if isinstance(payload, bytes):  # a raw signal, read beside its .meta sidecar, or a non-UTF-8 recipe
                (tmp_path / name).write_bytes(payload)
            else:
                (tmp_path / name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    argv = [word.format(**files) for word in row.argv.split()]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    out, err = capsys.readouterr()
    message = row.err.format(**files)
    assert (code, out) == (row.code, "")
    if message.startswith("error: "):
        assert err == message + "\n"
        if code == 2:
            named = [files[name] for name in ("bank", "model", "signal") if name in files and files[name] in err]
            assert bool(named) != row.unnamed
    else:
        assert err.startswith(f"usage: scatdecay {argv[0]} {argv[1]} ") and err.endswith(f"\n{message}\n")
    assert not (tmp_path / "out").exists()  # --out is made only once every refusal has passed


def _refusal_test(rows):
    if len(rows) == 1 and rows[0].id is None:
        return lambda tmp_path, capsys, monkeypatch: _refuse(rows[0], tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row, tmp_path, capsys, monkeypatch):
        _refuse(row, tmp_path, capsys, monkeypatch)

    return test


# one runner for every row; each group is collected as a test of its own name, which
# keeps each case's test id stable as the table grows
globals().update((name, _refusal_test(rows)) for name, rows in _REFUSALS.items())
