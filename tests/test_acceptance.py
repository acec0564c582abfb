"""The package's acceptance gate.

Nine end-to-end criteria, one per test, each announced as a single
PASS/FAIL line that bypasses capture so any pytest run reads as a
checklist.  The tolerances are contractual: loosening one is an API
break, not a test fix.
"""
import json
import math

import numpy as np
import pytest

from scatdecay.cli import main as cli_main
from scatdecay.decay import (
    compute_F1,
    compute_F2,
    compute_constants,
    lemma1_check,
    lemma2_envelope_check,
    verify_decay,
)
from scatdecay.filterbank import (
    build_bank,
    check_asymmetry,
    check_littlewood_paley,
    estimate_vanishing_order,
    even_morlet_mother,
    morlet_first_order_mother,
    morlet_mother,
    shannon_mother,
)
from scatdecay.scattering import energy_balance, scatter, shannon_tight_pair
from scatdecay.signals import Signal, band_limited_signal, energy
from scatdecay.stationary import (
    expected_filter_energy,
    make_model,
    mc_layer_energy,
    stationary_bound,
)


@pytest.fixture
def announce(capsys):
    def _announce(number, title, ok, detail):
        with capsys.disabled():
            print(f"\n[{number}/9] {title}: {'PASS' if ok else 'FAIL'} ({detail})")

    return _announce


def test_criterion_1_tight_frame_energy_balance(announce):
    bank, low = shannon_tight_pair(0, 256)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        f = band_limited_signal(256, (1, 127), rng)
        result = scatter(f, bank, low, 3)
        total = energy(f)
        for n in (1, 2, 3):
            report = energy_balance(result, n)
            worst = max(worst, report.residual / total)
    ok = worst < 1e-8
    announce(1, "tight-frame energy balance", ok,
             f"worst residual {worst:.2e} of signal energy, budget 1e-08")
    assert ok


def test_criterion_2_condition_checker_pattern(announce):
    # (littlewood_paley, asymmetry, vanishing_order) per mother
    expected = {
        "shannon": (True, True, True),
        "morlet": (True, True, True),
        "even symmetric": (True, False, True),
        "first order": (True, True, False),
    }
    mothers = {
        "shannon": shannon_mother(),
        "morlet": morlet_mother(),
        "even symmetric": even_morlet_mother(),
        "first order": morlet_first_order_mother(),
    }
    got = {}
    for name, mother in mothers.items():
        bank = build_bank(mother, 0, 256)
        got[name] = (
            check_littlewood_paley(bank).passed,
            check_asymmetry(bank).passed,
            estimate_vanishing_order(mother).passed,
        )
    ok = got == expected
    mism = [k for k in expected if got[k] != expected[k]]
    announce(2, "condition checker pass/fail pattern", ok,
             "4 mothers x 3 checks as designed" if ok else f"mismatch at {mism}")
    assert ok, got


def test_criterion_3_shannon_constants(announce, shannon_constants):
    targets = {
        "c": 0.5,
        "C": 1.0,
        "delta": 0.5,
        "a": 2.0 / math.sqrt(3.0),
    }
    errs = {k: abs(getattr(shannon_constants, k) - v) for k, v in targets.items()}
    ok = max(errs.values()) < 1e-9
    announce(3, "closed-form constants for the octave-indicator bank", ok,
             "max |error| {:.2e}, budget 1e-09".format(max(errs.values())))
    assert ok, errs


def test_criterion_4_dyadic_homogeneity(announce, shannon_bank, morlet_bank):
    worst = 0.0
    pairs = 0
    for bank in (shannon_bank, morlet_bank):
        f1, f2 = compute_F1(bank), compute_F2(bank)
        lo, hi = f1.band
        w = np.arange(lo, hi // 2 + 1)
        pairs += w.size
        low_idx, high_idx = w - lo, 2 * w - lo
        for fn, factor in ((f1, 2.0), (f2, 4.0)):
            target = factor * fn.values[low_idx]
            rel = np.abs(fn.values[high_idx] - target) / np.abs(target)
            worst = max(worst, float(rel.max()))
    ok = worst < 1e-10
    announce(4, "dyadic homogeneity of F1 and F2", ok,
             f"{pairs} frequency pairs per moment, worst rel err {worst:.2e}")
    assert ok


def test_criterion_5_first_lemma_inequality(announce):
    rng = np.random.default_rng(99)
    banks = [build_bank(shannon_mother(), 0, 64), build_bank(morlet_mother(), 0, 64)]
    worst = math.inf
    failures = 0
    for case in range(1000):
        bank = banks[case % 2]
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = Signal(samples)
        j = int(rng.integers(bank.j_min, bank.j_max + 1))
        x = float(2.0 ** rng.uniform(-2.0, 4.0))
        delta = float(rng.uniform(-8.0, 8.0))
        report = lemma1_check(f, j, x, delta, bank)
        worst = min(worst, report.margin / energy(f))
        failures += not report.passed
    ok = failures == 0
    announce(5, "modulus-vs-modulation smoothing inequality", ok,
             f"1000 cases, {failures} failures, worst margin {worst:.2e} of spectral energy")
    assert ok


def test_criterion_6_envelope_inequality(announce, shannon_bank, morlet_bank,
                                          shannon_constants, morlet_constants):
    worst = math.inf
    checks = 0
    ok = True
    for bank, constants in ((shannon_bank, shannon_constants),
                            (morlet_bank, morlet_constants)):
        for n in range(2, 6):
            x = constants.r * constants.a**n
            report = lemma2_envelope_check(bank, constants, x)
            worst = min(worst, report.margin)
            ok = ok and report.passed
            checks += 1
    announce(6, "per-layer envelope inequality at the bound widths", ok,
             f"{checks} (bank, layer) pairs, worst margin {worst:.2e}, budget -1e-09")
    assert ok


def test_criterion_7_decay_bound_on_random_signals(announce, shannon_bank,
                                                   shannon_constants):
    rng = np.random.default_rng(7)
    lo, hi = shannon_constants.band
    worst_slack = math.inf
    monotone = True
    for _ in range(100):
        f = band_limited_signal(256, (lo, hi), rng)
        rows = verify_decay(f, shannon_bank, shannon_constants, n_max=4)
        worst_slack = min(worst_slack, min(r.slack for r in rows))
        emp = [r.empirical for r in rows]
        monotone = monotone and all(b <= a for a, b in zip(emp, emp[1:]))
    ok = worst_slack >= -1e-8 and monotone
    announce(7, "geometric layer-energy bound on random band-limited input", ok,
             f"100 signals, layers 2-4, worst slack {worst_slack:.3g}, "
             f"monotone={monotone}")
    assert ok


def test_criterion_8_stationary_bound_monte_carlo(announce):
    bank = build_bank(shannon_mother(), 0, 128)
    constants = compute_constants(bank)
    models = {
        "white": make_model("white", 128, sigma=1.0),
        "band noise": make_model(
            "filtered_noise", 128, sigma=1.0,
            filter={"name": "band", "lo": 2.0, "hi": 40.0},
        ),
    }
    ok = True
    details = []
    for name, model in models.items():
        first = mc_layer_energy(model, bank, 1, trials=2000, seed=2026)
        analytic = sum(
            expected_filter_energy(model, bank.filters[j]) for j in bank.scales
        )
        gap = abs(first.estimate - analytic)
        ok = ok and gap <= 3.0 * first.stderr
        details.append(f"{name} layer-1 gap {gap / first.stderr:.2f} stderr")
        for n in (2, 3):
            est = mc_layer_energy(model, bank, n, trials=2000, seed=2026 + n)
            bound = stationary_bound(model, constants, n)
            ok = ok and est.estimate <= bound + 3.0 * est.stderr
            details.append(f"{name} n={n}: {est.estimate:.3g} <= {bound:.3g}")
    announce(8, "expected layer energy under stationary models", ok,
             "; ".join(details))
    assert ok


def test_criterion_9_modulus_shift_demo(announce, tmp_path):
    outs = []
    codes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        codes.append(cli_main(["demo", "modulus-shift", "--out", str(out)]))
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    shifted = summary["centroid_modulus"] < summary["centroid_filtered"]
    stable = outs[0] == outs[1]
    ok = codes == [0, 0] and shifted and stable
    announce(9, "modulus shifts a chirp's spectrum toward zero", ok,
             f"centroid {summary['centroid_filtered']:.4g} -> "
             f"{summary['centroid_modulus']:.4g}, byte-stable={stable}")
    assert ok
