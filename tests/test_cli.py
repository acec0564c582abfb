"""End-to-end checks of the command-line interface.

Every command goes through ``main(argv)``, so the tests exercise the same
parsing, dispatch, and exit-code mapping a shell user would hit:
0 = pass, 1 = failed condition, 2 = bad input, 3 = budget.
"""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scatdecay
from scatdecay import cli, scattering
from scatdecay.cli import main
from scatdecay.decay import DecayRow
from scatdecay.filterbank import (
    bandpass_mother,
    build_bank,
    even_morlet_mother,
    morlet_first_order_mother,
    morlet_mother,
    save_bank,
    shannon_mother,
)
from scatdecay.signals import Signal, band_limited_signal, write_signal
from scatdecay.stationary import load_model, make_model, save_model


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


def test_missing_bank_flag_is_usage_error(tmp_path, capsys):
    code = main(["bank", "check", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "bank file is required" in capsys.readouterr().err


def test_malformed_bank_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code = main(["bank", "check", "--bank", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_mother_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"mother": {"name": "hann"}, "J": 0, "N": 64}))
    code = main(["bank", "check", "--bank", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "hann" in capsys.readouterr().err


def test_bandpass_outside_window_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps(
        {"mother": {"name": "bandpass", "params": {"lo": 20, "hi": 40}}, "J": 0, "N": 256}
    ))
    code = main(["bank", "check", "--bank", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_bank_check_refuses_indicator_with_mass_on_the_fit_window(tmp_path, capsys):
    bad = tmp_path / "narrow.json"
    bad.write_text(json.dumps(
        {"mother": {"name": "bandpass", "params": {"lo": 0.01, "hi": 0.02}}, "J": 0, "N": 256}
    ))
    out = tmp_path / "x"
    assert main(["bank", "check", "--bank", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: mother 'bandpass' is flagged zero near the origin but has mass on the fit window\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1e-9"])
def test_scatter_run_refuses_a_non_finite_or_negative_floor(
    shannon_bank_file, signal_file, tmp_path, capsys, eps
):
    # a NaN floor once pruned nothing and an infinite one all of layer 1, and
    # both reached manifest.json as literals that JSON does not have
    out = tmp_path / "x"
    code = main(
        ["scatter", "run", "--bank", shannon_bank_file, "--signal", signal_file,
         "--out", str(out), f"--prune-eps={eps}"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: prune_eps must be finite and nonnegative\n"
    assert not out.exists()


def test_scatter_run_over_budget_exits_three(shannon_bank_file, signal_file, tmp_path, capsys):
    code = main(
        ["scatter", "run", "--bank", shannon_bank_file, "--signal", signal_file,
         "--out", str(tmp_path / "x"), "--depth", "7"]
    )
    assert code == 3
    assert "depth" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # refused before --out is made


def test_scatter_tight_lowpass_needs_shannon(morlet_bank_file, signal_file, tmp_path, capsys):
    code = main(
        ["scatter", "run", "--bank", morlet_bank_file, "--signal", signal_file,
         "--out", str(tmp_path / "x"), "--lowpass", "tight"]
    )
    assert code == 2
    assert "shannon" in capsys.readouterr().err


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


def test_decay_verify_degenerate_bank_exits_one(tmp_path, capsys):
    bank_path = tmp_path / "spike.json"
    save_bank(bank_path, build_bank(bandpass_mother(1.5 - 1e-9, 1.5), 0, 256))
    code = main(
        ["decay", "verify", "--bank", str(bank_path), "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "degenerate octave" in capsys.readouterr().err


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


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the request was refused")


@pytest.mark.parametrize(
    "words, message",
    [
        (["decay", "verify", "--depth", "1"], "the contraction argument starts at layer 2"),
        (["decay", "verify", "--depth", "-1"], "the contraction argument starts at layer 2"),
        (["stationary", "run", "--depth", "1", "--trials", "20000"],
         "the contraction argument starts at layer 2"),
        (["stationary", "run", "--depth", "0"], "layer must be at least 1"),
        (["stationary", "run", "--trials", "1"], "need at least two trials for a standard error"),
        (["stationary", "run", "--seed", "-1"], "seed must be a nonnegative integer"),
        (["decay", "verify", "--seed", "-1"], "seed must be a nonnegative integer"),
    ],
)
def test_bad_depth_or_trials_refused_before_any_work(words, message, tmp_path, capsys,
                                                     monkeypatch):
    bank_path = tmp_path / "shannon128.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 128))
    model_path = tmp_path / "white.json"
    save_model(model_path, make_model("white", 128, sigma=1.0))

    monkeypatch.setattr(cli, "compute_constants", _no_work)
    monkeypatch.setattr(cli, "mc_layer_energy", _no_work)
    out = tmp_path / "out"
    argv = words + ["--bank", str(bank_path), "--out", str(out)]
    if words[0] == "stationary":
        argv += ["--model", str(model_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "white", "N": 256, "params": {"sigma": math.nan}}, "values must be finite"),
        ({"kind": "white", "N": 100}, "sample count must be a power of two >= 2, got 100"),
        # the density sums to inf; sigma^2 itself overflows and once raised OverflowError
        ({"kind": "white", "N": 128, "params": {"sigma": 1e154}}, "values must be finite"),
        ({"kind": "white", "N": 128, "params": {"sigma": 1e200}}, "values must be finite"),
        # int() once truncated a size: N=128.9 ran at 128
        ({"kind": "white", "N": 128.9}, "malformed model file {path}: sizes must be integers, got 128.9"),
        ({"kind": "white", "N": True}, "malformed model file {path}: sizes must be integers, got True"),
        # a non-finite mean once wrote "estimate": "nan" and exited 1
        ({"kind": "white", "N": 256, "params": {"mean": math.nan}}, "values must be finite"),
        ({"kind": "white", "N": 256, "params": {"mean": math.inf}}, "values must be finite"),
    ],
    ids=["sigma-nan", "length-100", "sigma-1e154", "sigma-1e200", "N-128.9", "N-true", "mean-nan",
         "mean-inf"],
)
def test_bad_model_file_refused_before_any_work(model, message, shannon_bank_file, tmp_path,
                                                capsys, monkeypatch):
    # a NaN density once passed every model check and wrote a NaN mc_report.json
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    monkeypatch.setattr(cli, "mc_layer_energy", _no_work)
    out = tmp_path / "out"
    argv = ["stationary", "run", "--bank", shannon_bank_file, "--model", str(model_path),
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=model_path)}\n"
    assert not out.exists()


_SHANNON_128 = {"mother": {"name": "shannon", "params": {}}, "J": 0, "j_min": None, "N": 128}


@pytest.mark.parametrize(
    "sizes, shown",
    [({"N": 128.7}, "128.7"), ({"J": 0.9}, "0.9"), ({"j_min": -0.5}, "-0.5"), ({"N": True}, "True"),
     ({"N": "128"}, "'128'")],
    ids=["N-128.7", "J-0.9", "j_min--0.5", "N-true", "N-string"],
)
def test_non_integral_bank_size_refused_before_any_work(sizes, shown, tmp_path, capsys,
                                                        monkeypatch):
    # int() once truncated these: N=128.7, J=0.9 ran as N=128, J=0 and passed
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({**_SHANNON_128, **sizes}))
    for name in ("check_littlewood_paley", "check_asymmetry", "estimate_vanishing_order"):
        monkeypatch.setattr(cli, name, _no_work)
    out = tmp_path / "out"
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed bank file {bank_path}: sizes must be integers, got {shown}\n"
    )
    assert not out.exists()


def test_bank_without_inner_frequency_refused_by_its_size(tmp_path, capsys):
    # N=2 is a legal signal size, but its grid has no frequency for the bank to validate
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({"mother": {"name": "morlet", "params": {}}, "J": 0, "j_min": None, "N": 2}))
    out = tmp_path / "out"
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: no frequency lies strictly between 0 and N/2 on N=2: a bank needs N >= 4\n"
    )
    assert not out.exists()


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
    "slack, code, verdict",
    [(-1e-8, 0, "OK"), (np.nextafter(-1e-8, -1.0), 1, "VIOLATED")],
    ids=["at-tolerance", "one-ulp-below"],
)
def test_decay_verdict_edge_is_the_slack_tolerance(slack, code, verdict, shannon_bank_file,
                                                    tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_decay", lambda *args, **kwargs: [
        DecayRow(n=2, empirical=1.0, bound=1.0 + slack, slack=float(slack))
    ])
    out = tmp_path / "out"
    assert main(["decay", "verify", "--bank", shannon_bank_file, "--out", str(out)]) == code
    assert capsys.readouterr().out.splitlines()[-1].endswith(f"[{verdict}]")


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


def test_decay_verify_over_budget_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # N=4096 keeps 12 octaves; layer 5 of the profile holds 4096 * 12^5 complex values
    bank_path = tmp_path / "morlet4096.json"
    save_bank(bank_path, build_bank(morlet_mother(), 0, 4096))
    monkeypatch.setattr(cli, "compute_constants", _no_work)
    out = tmp_path / "out"
    code = main(["decay", "verify", "--bank", str(bank_path), "--out", str(out), "--depth", "6"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: depth 6 with 12 octaves per node on N=4096 needs 16,307,453,952 bytes "
        "at once, over the budget of 1,073,741,824\n"
    )
    assert not out.exists()


def test_stationary_over_budget_refused_before_any_work(tmp_path, capsys, monkeypatch):
    bank_path = tmp_path / "shannon128.json"
    save_bank(bank_path, build_bank(shannon_mother(), 0, 128))
    model_path = tmp_path / "white.json"
    save_model(model_path, make_model("white", 128, sigma=1.0))
    monkeypatch.setattr(cli, "compute_constants", _no_work)
    monkeypatch.setattr(cli, "mc_layer_energy", _no_work)
    out = tmp_path / "out"
    code = main(["stationary", "run", "--bank", str(bank_path), "--model", str(model_path),
                 "--out", str(out), "--trials", "1000000000"])
    assert code == 3
    assert "layer 2 over 1000000000 trials" in capsys.readouterr().err
    assert not out.exists()


def test_scatter_run_over_budget_forms_no_layer(tmp_path, capsys, monkeypatch):
    # depth 6 at N=4096: 2 * 4096 * sum_{k <= 6} 12^k complex values, ~400 GB
    bank_path = tmp_path / "morlet4096.json"
    save_bank(bank_path, build_bank(morlet_mother(), 0, 4096))
    sig_path = tmp_path / "f.csv"
    write_signal(sig_path, band_limited_signal(4096, (2, 2000), np.random.default_rng(4)))
    monkeypatch.setattr(scattering, "_layer_moduli", _no_work)
    out = tmp_path / "out"
    code = main(["scatter", "run", "--bank", str(bank_path), "--signal", str(sig_path),
                 "--out", str(out), "--depth", "6"])
    assert code == 3
    assert "depth 6 with 12 octaves per node on N=4096" in capsys.readouterr().err
    assert not out.exists()


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
        (128, None, 2**31, "a model on N=2147483648 needs 34,359,738,368 bytes"),
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


def test_decay_verify_wrong_signal_length_refused_before_constants(
    morlet_bank_file, tmp_path, capsys, monkeypatch
):
    sig_path = tmp_path / "short.csv"
    write_signal(sig_path, band_limited_signal(128, (2, 60), np.random.default_rng(2)))
    monkeypatch.setattr(cli, "compute_constants", _no_work)
    out = tmp_path / "out"
    code = main(["decay", "verify", "--bank", morlet_bank_file, "--signal", str(sig_path),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: signal length 128 does not match bank grid 256\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "words",
    [
        ["bank", "check", "--seed", "1"],
        ["bank", "check", "--depth", "3"],
        ["scatter", "run", "--seed", "1"],
        ["scatter", "run", "--tol", "1e-6"],
        ["stationary", "run", "--tol", "1e-6"],
        ["bank", "check", "--tol", "1e-9"],
        ["decay", "verify", "--tol", "1e-8"],
    ],
    ids=lambda words: " ".join(words[:3]),
)
def test_unread_flags_are_rejected(words, capsys):
    with pytest.raises(SystemExit) as exc:
        main(words)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # reported by the subcommand's parser, whose usage line lists the flags it takes
    assert err.startswith(f"usage: scatdecay {words[0]} {words[1]} ")


def test_stationary_grid_mismatch_is_parse_error(shannon_bank_file, tmp_path, capsys):
    model_path = tmp_path / "white128.json"
    save_model(model_path, make_model("white", 128, sigma=1.0))
    code = main(
        ["stationary", "run", "--bank", shannon_bank_file, "--model", str(model_path),
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "grid" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def refusal_files(tmp_path_factory, shannon_bank_file, morlet_bank_file, signal_file):
    root = tmp_path_factory.mktemp("refusals")
    even, first, white, short = (str(root / name) for name in
                                 ("even.json", "first.json", "white.json", "short.csv"))
    save_bank(even, build_bank(even_morlet_mother(), 0, 256))
    save_bank(first, build_bank(morlet_first_order_mother(), 0, 256))
    save_model(white, make_model("white", 256, sigma=1.0))
    write_signal(short, band_limited_signal(128, (2, 50), np.random.default_rng(1)))
    return dict(shannon=shannon_bank_file, morlet=morlet_bank_file, signal=signal_file,
                even=even, first=first, white=white, short=short)


_NO_DRIFT = ("first-moment rate c = 0.000e+00 is not positive; the bank has no strict "
             "analytic preference and the drift argument collapses")


@pytest.mark.parametrize(
    "words, code, message",
    [
        (["scatter", "run", "--bank", "{morlet}", "--signal", "{signal}", "--lowpass", "tight"],
         2, "the tight pair is only defined for the shannon bank"),
        (["scatter", "run", "--bank", "{shannon}", "--signal", "{short}"],
         2, "signal, bank and lowpass must share one grid"),
        (["decay", "verify", "--bank", "{even}"], 1, _NO_DRIFT),
        (["decay", "verify", "--bank", "{first}"], 1, "near-zero decay order 0.0181 below 0.05"),
        (["stationary", "run", "--bank", "{even}", "--model", "{white}"], 1, _NO_DRIFT),
        (["stationary", "run", "--bank", "{first}", "--model", "{white}"],
         1, "near-zero decay order 0.0181 below 0.05"),
        (["decay", "verify", "--bank", "{shannon}", "--signal", "{short}"],
         2, "signal length 128 does not match bank grid 256"),
        (["demo", "modulus-shift", "--scale", "5"], 2, "scale 5 outside bank range [-8, 0]"),
    ],
    ids=["tight-on-morlet", "scatter-grid", "verify-even", "verify-first-order",
         "stationary-even", "stationary-first-order", "verify-signal-grid", "demo-scale"],
)
def test_refused_run_leaves_no_out(words, code, message, refusal_files, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [word.format(**refusal_files) for word in words] + ["--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()  # --out is made only once every refusal has passed


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
