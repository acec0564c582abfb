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
from dataclasses import dataclass

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
    morlet_mother,
    save_bank,
    shannon_mother,
)
from scatdecay.signals import Signal, band_limited_signal, write_signal
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


_SHANNON_128 = {"mother": {"name": "shannon", "params": {}}, "J": 0, "j_min": None, "N": 128}


def test_far_coarse_bank_is_built_and_validates_no_band(tmp_path, capsys):
    # 2^-1100 scales every frequency to zero: a bank, but one that certifies nothing
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({**_SHANNON_128, "J": -1100}))
    assert main(["bank", "check", "--bank", str(bank_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.endswith("validated band: none\n")


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
# layer or leaves an --out behind.


@dataclass(frozen=True)
class Refusal:
    argv: str
    code: int
    err: str
    bank: dict | str | None = None
    model: dict | None = None
    signal: str | None = None
    work: bool = False
    id: str | None = None


def _bank(name, J=0, N=256, j_min=None, **params):
    return {"mother": {"name": name, "params": params}, "J": J, "j_min": j_min, "N": N}


def _model(kind, N, **params):
    return {"kind": kind, "params": params, "N": N}


_SHANNON, _MORLET, _WHITE_128 = _bank("shannon"), _bank("morlet"), _model("white", 128, sigma=1.0)
_SIGNAL_256, _SIGNAL_128 = "1\n" * 256, "1\n" * 128
_CHECK = "bank check --bank {bank} --out {out}"
_STATIONARY = "stationary run --bank {bank} --model {model} --out {out}"
_SCATTER = "scatter run --bank {bank} --signal {signal} --out {out}"
_MALFORMED_MODEL = "error: malformed model file {model}: "
_NOT_A_FLOAT = "float() argument must be a string or a real number, not "
_TOO_LONG = "int too large to convert to float"
_NO_DRIFT = ("error: first-moment rate c = 0.000e+00 is not positive; the bank has no strict "
             "analytic preference and the drift argument collapses")
_NEAR_ZERO = "error: near-zero decay order 0.0181 below 0.05"


def _bad_amplitude(amplitude):
    # float64 cannot square these: they once wrote "max_sum": "inf" or an unnamed refusal
    return Refusal(_CHECK, 2, f"error: bandpass amplitude {amplitude:g} is outside float64: its "
                   "octave sums reach amplitude^2 * 1, which is not finite",
                   bank=_bank("bandpass", lo=1, hi=2, amplitude=amplitude), id=f"amplitude-{amplitude:g}")


def _bad_model(model, err, id):
    return Refusal(_STATIONARY, 2, err, bank=_SHANNON, model=model, id=id)


def _bad_size(id, shown, **sizes):
    # int() once truncated these: N=128.7, J=0.9 ran as N=128, J=0 and passed
    return Refusal(_CHECK, 2, f"error: malformed bank file {{bank}}: sizes must be integers, got {shown}",
                   bank={**_SHANNON_128, **sizes}, id=id)


_REFUSALS = {
    "test_missing_bank_flag_is_usage_error": [
        Refusal("bank check --out {out}", 2, "error: a bank file is required (--bank)"),
    ],
    "test_missing_file_flag_is_usage_error": [
        Refusal("bank check --bank {bank}", 2, "error: an output directory is required (--out)",
                bank=_SHANNON, id="bank-check-out"),
        Refusal("scatter run --bank {bank} --out {out}", 2, "error: a signal file is required (--signal)",
                bank=_SHANNON, id="scatter-signal"),
        Refusal("stationary run --bank {bank} --out {out}", 2, "error: a model file is required (--model)",
                bank=_SHANNON, id="stationary-model"),
    ],
    "test_malformed_bank_file_is_parse_error": [
        Refusal(_CHECK, 2, "error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                bank="{this is not json"),
    ],
    "test_unknown_mother_is_parse_error": [
        Refusal(_CHECK, 2, "error: unknown mother wavelet 'hann'", bank=_bank("hann", N=64)),
    ],
    "test_bandpass_outside_window_is_parse_error": [
        Refusal(_CHECK, 2, "error: band (20, 40] leaves the converged window [1e-08, 16] where octave "
                "sums are taken", bank=_bank("bandpass", lo=20, hi=40)),
    ],
    "test_bank_check_refuses_indicator_with_mass_on_the_fit_window": [
        Refusal(_CHECK, 2, "error: mother 'bandpass' is flagged zero near the origin but has mass on "
                "the fit window", bank=_bank("bandpass", lo=0.01, hi=0.02), work=True),
    ],
    # a NaN floor once pruned nothing and an infinite one all of layer 1, and
    # both reached manifest.json as literals that JSON does not have
    "test_scatter_run_refuses_a_non_finite_or_negative_floor": [
        Refusal(f"{_SCATTER} --prune-eps={eps}", 2, "error: prune_eps must be finite and nonnegative",
                bank=_SHANNON, signal=_SIGNAL_256, id=eps)
        for eps in ("nan", "inf", "-inf", "-1e-9")
    ],
    "test_scatter_run_over_budget_exits_three": [
        Refusal(f"{_SCATTER} --depth 7", 3, "error: depth 7 with 8 octaves per node on N=256 needs "
                "19,634,135,040 bytes at once, over the budget of 1,073,741,824", bank=_SHANNON,
                signal=_SIGNAL_256),
    ],
    "test_scatter_tight_lowpass_needs_shannon": [
        Refusal(f"{_SCATTER} --lowpass tight", 2, "error: the tight pair is only defined for the shannon bank",
                bank=_MORLET, signal=_SIGNAL_256),
    ],
    "test_decay_verify_degenerate_bank_exits_one": [
        Refusal("decay verify --bank {bank} --out {out}", 1, "error: degenerate octave: c^2 = "
                "4.444444444444e-01 reaches C = 4.444444444444e-01, so the width contraction a is unbounded",
                bank=_bank("bandpass", lo=1.5 - 1e-9, hi=1.5), work=True),
    ],
    "test_bad_depth_or_trials_refused_before_any_work": [
        Refusal(f"{argv} --bank {{bank}} --out {{out}}", 2, f"error: {message}", bank=_SHANNON_128,
                model=_WHITE_128, id=f"words{k}-{message}")
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
        _bad_model(_model("white", 256, sigma=math.nan), "error: values must be finite", "sigma-nan"),
        _bad_model(_model("white", 100), "error: sample count must be a power of two >= 2, got 100",
                   "length-100"),
        # the density sums to inf; sigma^2 itself overflows and once raised OverflowError
        _bad_model(_model("white", 128, sigma=1e154), "error: values must be finite", "sigma-1e154"),
        _bad_model(_model("white", 128, sigma=1e200), "error: values must be finite", "sigma-1e200"),
        # int() once truncated a size: N=128.9 ran at 128
        _bad_model(_model("white", 128.9), _MALFORMED_MODEL + "sizes must be integers, got 128.9", "N-128.9"),
        _bad_model(_model("white", True), _MALFORMED_MODEL + "sizes must be integers, got True", "N-true"),
        # a non-finite mean once wrote "estimate": "nan" and exited 1
        _bad_model(_model("white", 256, mean=math.nan), "error: values must be finite", "mean-nan"),
        _bad_model(_model("white", 256, mean=math.inf), "error: values must be finite", "mean-inf"),
        # mean + x once rounded x away: estimate=0 (stderr 0) and [OK] on a Shannon bank
        _bad_model(_model("white", 256, mean=1e20), "error: mean 1e+20 is more than 2^27 times the standard "
                   "deviation 16: float64 cannot hold the fluctuation beside it", "mean-1e20"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "band", "lo": 3, "hi": 3}),
                   "error: need 0 <= lo < hi, got (3.0, 3.0)", "band-lo-hi"),
        _bad_model(_model("white", 256, sigma=[1]), _MALFORMED_MODEL + _NOT_A_FLOAT + "'list'", "sigma-list"),
        _bad_model(_model("white", 256, sigma=None), _MALFORMED_MODEL + _NOT_A_FLOAT + "'NoneType'",
                   "sigma-null"),
        _bad_model(_model("white", 256, mean={}), _MALFORMED_MODEL + _NOT_A_FLOAT + "'dict'", "mean-object"),
        _bad_model(_model("ar1", 256, rho=[0.5]), _MALFORMED_MODEL + _NOT_A_FLOAT + "'list'", "rho-list"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "gaussian_lowpass", "a": [2]}),
                   _MALFORMED_MODEL + _NOT_A_FLOAT + "'list'", "filter-a-list"),
        _bad_model(_model("filtered_noise", 256, filter={"name": "gaussian_lowpass"}),
                   _MALFORMED_MODEL + "'a'", "filter-without-a"),
        _bad_model(_model("white", 256, sigma=10**400), _MALFORMED_MODEL + _TOO_LONG, "sigma-401-digits"),
    ],
    "test_non_integral_bank_size_refused_before_any_work": [
        _bad_size("N-128.7", "128.7", N=128.7), _bad_size("J-0.9", "0.9", J=0.9),
        _bad_size("j_min--0.5", "-0.5", j_min=-0.5), _bad_size("N-true", "True", N=True),
        _bad_size("N-string", "'128'", N="128"),
    ],
    # N=2 is a legal signal size, but its grid has no frequency for the bank to validate
    "test_bank_without_inner_frequency_refused_by_its_size": [
        Refusal(_CHECK, 2, "error: no frequency lies strictly between 0 and N/2 on N=2: a bank needs N >= 4",
                bank=_bank("morlet", N=2)),
    ],
    # the first three once ended in an OverflowError or ZeroDivisionError traceback, and
    # a width whose square overflows must not raise one either; test_filterbank.py sweeps
    # octaves and widths through the builders themselves
    "test_out_of_range_bank_recipe_refused": [
        Refusal(_CHECK, 2, "error: " + _OCTAVES_OFF_FLOAT64.format(int(1e300), int(1e300) - 7),
                bank=_bank("morlet", J=1e300), id="J-too-large"),
        Refusal(_CHECK, 2, "error: " + _OCTAVES_OFF_FLOAT64.format(-3000000000, -3000000007),
                bank=_bank("shannon", J=-3000000000), id="j_min-too-small"),
        Refusal(_CHECK, 2, "error: Morlet width 1e-200 is too narrow for float64: |center| * 16 / width^2 "
                "overflows", bank=_bank("morlet", width=1e-200), id="width-too-small"),
        Refusal(_CHECK, 2, "error: Morlet bump at 3 of width 1e+200 reaches past 16, where octave sums are "
                "truncated; need |center| + 8.72 * width <= 16", bank=_bank("morlet", width=1e200),
                id="width-too-large"),
        *(_bad_amplitude(amplitude) for amplitude in (1e308, 1e200, math.inf, math.nan)),
        *(Refusal(_CHECK, 2, f"error: bad parameters for mother {mother!r}: {_TOO_LONG}",
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
        Refusal(_SCATTER, 2, f"error: signal {{signal}} has a sample of modulus {value:g}, over 2^510 / "
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
    "test_decay_verify_wrong_signal_length_refused_before_constants": [
        Refusal("decay verify --bank {bank} --signal {signal} --out {out}", 2,
                "error: signal length 128 does not match bank grid 256", bank=_MORLET, signal=_SIGNAL_128),
    ],
    # reported by the subcommand's parser, whose usage line lists the flags it takes
    "test_unread_flags_are_rejected": [
        Refusal(f"{command} {flags}", 2, f"scatdecay {command}: error: unrecognized arguments: {flags}",
                id=f"{command} {flags.split()[0]}")
        for command, flags in (("bank check", "--seed 1"), ("bank check", "--depth 3"), ("scatter run", "--seed 1"),
                               ("scatter run", "--tol 1e-6"), ("stationary run", "--tol 1e-6"),
                               ("bank check", "--tol 1e-9"), ("decay verify", "--tol 1e-8"))
    ],
    "test_stationary_grid_mismatch_is_parse_error": [
        Refusal(_STATIONARY, 2, "error: bank grid 256 does not match model grid 128", bank=_SHANNON,
                model=_WHITE_128),
    ],
    "test_refused_run_leaves_no_out": [
        Refusal(f"{_SCATTER} --lowpass tight", 2, "error: the tight pair is only defined for the shannon bank",
                bank=_MORLET, signal=_SIGNAL_256, id="tight-on-morlet"),
        Refusal(_SCATTER, 2, "error: signal, bank and lowpass must share one grid", bank=_SHANNON,
                signal=_SIGNAL_128, id="scatter-grid"),
        Refusal("decay verify --bank {bank} --out {out}", 1, _NO_DRIFT, bank=_bank("even_morlet"), work=True,
                id="verify-even"),
        Refusal("decay verify --bank {bank} --out {out}", 1, _NEAR_ZERO, bank=_bank("morlet_first_order"),
                work=True, id="verify-first-order"),
        Refusal(_STATIONARY, 1, _NO_DRIFT, bank=_bank("even_morlet"), model=_model("white", 256, sigma=1.0),
                work=True, id="stationary-even"),
        Refusal(_STATIONARY, 1, _NEAR_ZERO, bank=_bank("morlet_first_order"),
                model=_model("white", 256, sigma=1.0), work=True, id="stationary-first-order"),
        Refusal("decay verify --bank {bank} --signal {signal} --out {out}", 2,
                "error: signal length 128 does not match bank grid 256", bank=_SHANNON, signal=_SIGNAL_128,
                id="verify-signal-grid"),
        Refusal("demo modulus-shift --scale 5 --out {out}", 2, "error: scale 5 outside bank range [-8, 0]",
                id="demo-scale"),
    ],
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the request was refused")


def _refuse(row, tmp_path, capsys, monkeypatch):
    if not row.work:
        for name in ("compute_constants", "mc_layer_energy", "check_littlewood_paley", "check_asymmetry",
                     "estimate_vanishing_order"):
            monkeypatch.setattr(cli, name, _no_work)
    monkeypatch.setattr(scattering, "_layer_moduli", _no_work)
    files = {"out": str(tmp_path / "out")}
    for name, payload in (("bank", row.bank), ("model", row.model), ("signal", row.signal)):
        if payload is not None:
            files[name] = str(tmp_path / name)
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
