import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scatdecay.filterbank import (
    MOTHERS,
    X_WINDOW,
    _octave_sums,
    bandpass_mother,
    build_bank,
    check_asymmetry,
    check_littlewood_paley,
    estimate_vanishing_order,
    even_morlet_mother,
    ideal_lp_sum,
    load_bank,
    make_mother,
    morlet_first_order_mother,
    morlet_mother,
    save_bank,
    shannon_mother,
)
from test_decay import reference_terms


# --- mother profiles -------------------------------------------------------


def test_morlet_vanishes_to_second_order_at_origin():
    m = morlet_mother(3.0, 1.0)
    assert m(0.0) == 0.0
    # symmetric difference quotient kills the quadratic term, leaving O(h^2)
    h = 1e-6
    assert abs((m(h) - m(-h)) / (2 * h)) < 1e-9


def test_morlet_peak_value():
    # exact closed form at the center: 1 - 10*exp(-9) for center 3, width 1
    m = morlet_mother(3.0, 1.0)
    assert float(m(3.0)) == pytest.approx(1.0 - 10.0 * math.exp(-9.0), abs=1e-15)
    assert float(m(3.0)) == pytest.approx(0.9987659019591332, abs=1e-15)


def test_first_order_morlet_peak_value():
    m = morlet_first_order_mother(3.0, 1.0)
    assert float(m(3.0)) == pytest.approx(1.0 - math.exp(-9.0), abs=1e-15)
    assert float(m(0.0)) == 0.0


def test_first_order_morlet_is_linear_near_zero():
    m = morlet_first_order_mother(3.0, 1.0)
    # ratio hat(w)/w stabilizes to a nonzero constant
    r1 = float(m(1e-5)) / 1e-5
    r2 = float(m(1e-6)) / 1e-6
    assert abs(r1 - r2) < 1e-4 * abs(r1)
    assert abs(r1) > 0.01


def test_even_morlet_is_even():
    m = even_morlet_mother(3.0, 1.0)
    w = np.linspace(0.01, 8.0, 50)
    assert np.array_equal(m(w), m(-w))


def test_shannon_band_is_half_open():
    m = shannon_mother()
    assert float(m(1.0)) == 0.0
    assert float(m(1.0 + 1e-9)) == pytest.approx(math.sqrt(2.0))
    assert float(m(2.0)) == pytest.approx(math.sqrt(2.0))
    assert float(m(2.0 + 1e-9)) == 0.0
    assert float(m(-1.5)) == 0.0


def test_bandpass_validates_parameters():
    with pytest.raises(ValueError):
        bandpass_mother(2.0, 1.0)
    with pytest.raises(ValueError):
        bandpass_mother(1.0, 2.0, amplitude=0.0)


def test_bandpass_outside_window_rejected():
    # mass beyond X_WINDOW would be dropped from every octave sum
    with pytest.raises(ValueError, match="window"):
        bandpass_mother(20.0, 40.0)
    with pytest.raises(ValueError, match="window"):
        bandpass_mother(1e-9, 1.0)
    assert bandpass_mother(X_WINDOW[0], X_WINDOW[1]).params["hi"] == X_WINDOW[1]


@pytest.mark.parametrize(
    "builder", [morlet_mother, morlet_first_order_mother, even_morlet_mother]
)
def test_morlet_bump_past_window_rejected(builder):
    # morlet(15, 1) loses ~0.1 of its octave mass beyond X_WINDOW[1]
    with pytest.raises(ValueError, match="reaches past"):
        builder(15.0, 1.0)
    # the widest bump the tests and benchmark draw still builds
    assert builder(3.5, 1.2).params == {"center": 3.5, "width": 1.2}


@pytest.mark.parametrize(
    "builder", [morlet_mother, morlet_first_order_mother, even_morlet_mother]
)
def test_morlet_width_float64_cannot_hold_rejected(builder):
    # 1e-200 ** 2 is 0.0 in float64, which the correction amplitude divides by, and the
    # bump's exponent (16 + 3)^2 / (2 width^2) overflows at 1e-160 and, just, at 1e-153
    for width in (1e-200, 1e-160, 1e-153):
        message = (f"Morlet width {width:g} is too narrow for float64: "
                   "(16 + |center|)^2 / (2 width^2) overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builder(3.0, width)
    # 1e200 ** 2 raises OverflowError in Python; the bump is refused by its reach first
    for width in (1e200, math.inf):
        message = f"Morlet bump at 3 of width {width:g} reaches past 16,"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            builder(3.0, width)
    with pytest.raises(ValueError, match="^Morlet width must be positive, got nan$"):
        builder(3.0, math.nan)
    with pytest.raises(ValueError, match="^Morlet bump at nan of width 1 reaches past 16,"):
        builder(math.nan, 1.0)
    # a width whose exponent stays finite on the window builds
    assert builder(3.0, 1e-152).params == {"center": 3.0, "width": 1e-152}
    assert builder(3.0, 1e-150).params == {"center": 3.0, "width": 1e-150}


@pytest.mark.parametrize(
    "builder", [morlet_mother, morlet_first_order_mother, even_morlet_mother]
)
def test_morlet_numpy_scalar_parameters_refused_without_warning(builder):
    # NumPy scalars once reached the refusals' arithmetic as NumPy scalars, which warned
    # "overflow encountered in scalar divide" or "... multiply" before the refusal
    cases = [
        (3.0, np.float64(1e-160), "Morlet width 1e-160 is too narrow for float64: "
         "(16 + |center|)^2 / (2 width^2) overflows"),
        (np.float64(3.0), 1e-160, "Morlet width 1e-160 is too narrow for float64: "
         "(16 + |center|)^2 / (2 width^2) overflows"),
        (3.0, np.float64(1e308), "Morlet bump at 3 of width 1e+308 reaches past 16,"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for center, width, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                builder(center, width)
    # NumPy scalars that pass give the Python floats' mother, bit for bit
    w = np.geomspace(2.0**-10, 16.0, 97)
    got = builder(np.float64(3.0), np.float64(1.0)).pair(w)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in builder(3.0, 1.0).pair(w)]


def test_integer_amplitude_gives_float64_pair():
    # a JSON integer amplitude: the same float64 bits as the float amplitude
    w = np.geomspace(0.25, 8.0, 41)
    want = bandpass_mother(0.75, 3.0, 1.0).pair(w)
    got = bandpass_mother(0.75, 3, 1).pair(w)
    assert [a.dtype for a in got] == [np.float64, np.float64]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_make_mother_registry():
    assert set(MOTHERS) == {
        "morlet",
        "morlet_first_order",
        "even_morlet",
        "shannon",
        "bandpass",
    }
    with pytest.raises(ValueError):
        make_mother("mexican_hat")
    with pytest.raises(ValueError):
        make_mother("morlet", sharpness=2.0)


# --- bank construction -----------------------------------------------------


def test_default_finest_octave():
    bank = build_bank(shannon_mother(), 0, 256)
    assert bank.j_min == -7
    assert list(bank.scales) == list(range(-7, 1))


def test_filters_sample_dilated_mother():
    bank = build_bank(morlet_mother(), 0, 64)
    w = np.arange(-32, 32, dtype=float)
    for j in bank.scales:
        expected = bank.mother(w * 2.0**j)
        assert np.array_equal(bank.filters[j].coeffs.real, expected)
        assert np.all(bank.filters[j].coeffs.imag == 0.0)


def test_dilation_covariance_is_bitwise():
    # psi_hat_{j+1}(w) and psi_hat_j(2w) are the same floats
    bank = build_bank(morlet_mother(), 0, 128)
    w = np.arange(1, 32)
    for j in range(bank.j_min, bank.j_max):
        a = bank.filters[j + 1].coeffs[w + 64]
        b = bank.filters[j].coeffs[2 * w + 64]
        assert np.array_equal(a, b)


def test_validated_band_shannon():
    bank = build_bank(shannon_mother(), 0, 256)
    assert bank.validated_band == (2, 127)


def test_validated_band_morlet():
    bank = build_bank(morlet_mother(), 0, 256)
    assert bank.validated_band == (3, 127)


@pytest.mark.parametrize(
    "lo, hi, j, band",
    [
        # covered runs 1-4, 6-16 and 21-31, but the one octave carries mass only on
        # 8.4 < w <= 10: one run, 9-10
        (1.05, 1.25, -3, (9, 10)),
        # covered runs 1-2, 4-9, 13-19 and 26-31, mass only on 4.8 < w <= 6.4: one run, 5-6
        (1.2, 1.6, -2, (5, 6)),
    ],
)
def test_validated_band_takes_first_widest_run(lo, hi, j, band):
    bank = build_bank(bandpass_mother(lo, hi), j, 64, j_min=j)
    assert bank.validated_band == band


@pytest.mark.parametrize(
    "lo, hi, j_max, j_min, band",
    [
        # octaves -4..-2 carry mass on 5, 10 and 20, every other integer is a hole:
        # the three runs tie, the first wins
        (1.2, 1.3, -2, -4, (5, 5)),
        # mass on 5-6, 10-12 and 20-25: the last run is the widest
        (1.2, 1.6, -2, -4, (20, 25)),
    ],
)
def test_validated_band_takes_first_widest_run_of_octave_mass(lo, hi, j_max, j_min, band):
    bank = build_bank(bandpass_mother(lo, hi), j_max, 64, j_min=j_min)
    assert bank.validated_band == band


def test_validated_band_shrinks_with_coarse_floor():
    # dropping the fine octaves uncovers the top of the spectrum
    full = build_bank(shannon_mother(), 0, 256)
    clipped = build_bank(shannon_mother(), 0, 256, j_min=-4)
    assert clipped.validated_band is not None
    assert clipped.validated_band[0] == full.validated_band[0]
    assert clipped.validated_band[1] < full.validated_band[1]


@pytest.mark.parametrize("n", [0, 2, 3])
def test_grid_without_inner_frequency_rejected(n):
    # N = 0, 2 and 3 hold no integer strictly between 0 and N/2, so no band can be validated
    with pytest.raises(ValueError, match=f"no frequency lies strictly between 0 and N/2 on N={n}"):
        build_bank(morlet_mother(), 0, n)
    # N=4 holds the frequency 1, so it is built, even though it validates no band
    assert build_bank(morlet_mother(), 0, 4).n == 4


def test_empty_octave_range_rejected():
    with pytest.raises(ValueError):
        build_bank(shannon_mother(), 0, 64, j_min=1)


_OCTAVES_OFF_FLOAT64 = ("J={}, j_min={} on N=256: float64 cannot scale by these octaves "
                        "(need j_min >= -2^31 and a top frequency 2^J * N/2 whose square is finite)")


@pytest.mark.parametrize(
    "j_max",
    [505, 1017, 3000, 2**62, int(1e300), -(2**31) + 6, -3_000_000_000, -int(1e300)],
    ids=["505", "1017", "3000", "2^62", "1e300", "-2^31+6", "-3e9", "-1e300"],
)
def test_octaves_float64_cannot_scale_by_are_refused(j_max):
    # these once raised OverflowError inside np.ldexp, or warned and named no input;
    # at 505..1016 the mothers overflowed squaring the top frequency 2^J * 128
    message = _OCTAVES_OFF_FLOAT64.format(j_max, j_max - 7)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_bank(shannon_mother(), j_max, 256)


def test_extreme_octaves_float64_can_scale_by_are_built():
    # (2^504 * 128)^2 = 2^1022 is finite; j_min = -2^31 is the least exponent np.ldexp takes
    for j_max in (504, -(2**31) + 7):
        bank = build_bank(shannon_mother(), j_max, 256)
        assert bank.validated_band is None and len(bank.filters) == 8


# --- converged dyadic sums -------------------------------------------------


def test_shannon_ideal_sum_is_one_everywhere():
    # sqrt(2)^2 lands one ulp above 2, so "exactly 1" means within an ulp
    vals = ideal_lp_sum(shannon_mother(), np.geomspace(0.25, 100.0, 300))
    assert np.max(np.abs(vals - 1.0)) <= 4e-16


def test_ideal_sum_scale_invariance_bitwise():
    m = morlet_mother()
    w = np.geomspace(1.0, 2.0, 41)
    assert np.array_equal(ideal_lp_sum(m, w), ideal_lp_sum(m, 2.0 * w))
    assert np.array_equal(ideal_lp_sum(m, w), ideal_lp_sum(m, 16.0 * w))


def _term_rows(mother, omegas, j_max=None):
    """The octaves and the p, m rows ``_octave_sums`` hands its terms, stacked in ascending j."""
    js, p, m = [], [], []

    def recording(j, w, pj, mj):
        js.extend(j[:, 0].tolist())
        p.append(pj)
        m.append(mj)
        return (pj,)

    _octave_sums(mother, omegas, recording, j_max)
    return np.array(js), np.concatenate(p), np.concatenate(m)


def _recording(base, seen):
    """``base`` with every array its pair receives appended to ``seen``."""

    def pair(w):
        seen.append(np.array(w))
        return base.pair(w)

    return replace(base, pair=pair)


def test_term_grid_masks_by_window():
    js, p, m = _term_rows(shannon_mother(), np.array([3.0]))
    # exactly one octave catches 3.0: j = -1 puts it at 1.5
    hot = np.flatnonzero(p[:, 0])
    assert js[hot].tolist() == [-1]
    assert p[hot, 0] == pytest.approx([2.0])
    assert np.all(m == 0.0)


@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_term_grid_evaluates_only_inside_window(make):
    base = make()
    seen = []
    # far past both window edges, so most (j, w) entries fall outside it
    omegas = np.geomspace(1e-12, 1e6, 257)
    js, p, m = _term_rows(_recording(base, seen), omegas)
    args = np.concatenate([a.ravel() for a in seen])
    assert X_WINDOW[0] <= args.min() and args.max() <= X_WINDOW[1]
    want_js, want_p, want_m = reference_terms(base, omegas)
    assert js.tolist() == want_js.tolist()
    # the mother sees the whole (octave, frequency) grid clipped to the window,
    # in blocks of ascending octaves, each entry once
    x = np.ldexp(omegas[None, :], js[:, None])
    assert args.tobytes() == np.clip(x, *X_WINDOW).tobytes()
    # same bits as evaluating the whole grid and masking afterwards
    assert p.tobytes() == want_p.tobytes()
    assert m.tobytes() == want_m.tobytes()


@pytest.mark.parametrize("j_max", [-3, 0, 2])
def test_term_grid_stops_at_j_max(j_max):
    base = morlet_mother()
    seen = []
    omegas = np.geomspace(0.5, 200.0, 97)
    js, p, m = _term_rows(base, omegas)
    top_js, top_p, top_m = _term_rows(_recording(base, seen), omegas, j_max=j_max)
    rows = js <= j_max
    assert top_js.tolist() == js[rows].tolist()
    assert top_p.tobytes() == p[rows].tobytes() and top_m.tobytes() == m[rows].tobytes()
    # the mother's pair is evaluated at +2^j w clipped to the window, octave by octave up to j_max
    x = np.ldexp(omegas[None, :], top_js[:, None])
    args = np.concatenate([a.ravel() for a in seen])
    assert args.tobytes() == np.clip(x, *X_WINDOW).tobytes()


# each mother at its default parameters and at one other set
MOTHER_CASES = {
    "morlet": [{}, {"center": 3.4, "width": 1.15}],
    "morlet_first_order": [{}, {"center": 2.6, "width": 0.8}],
    "even_morlet": [{}, {"center": 2.7, "width": 0.9}],
    "shannon": [{}],
    "bandpass": [{"lo": 1.0, "hi": 1.5}, {"lo": 0.75, "hi": 3.0, "amplitude": 1.0}],
}


def test_mother_cases_cover_every_mother():
    assert sorted(MOTHER_CASES) == sorted(MOTHERS)


@pytest.mark.parametrize(
    "name, params", [(name, params) for name, sets in MOTHER_CASES.items() for params in sets]
)
def test_pair_has_the_bits_of_two_hat_calls(name, params):
    mother = make_mother(name, **params)
    edges = np.ldexp(1.0, np.arange(-26, 5))
    # a log grid over the window, and both sides of each dyadic edge inside it
    for w in (np.geomspace(1e-8, 16.0, 4001), np.concatenate([edges, np.nextafter(edges, 0.0), edges * (1.0 + 1e-9)])):
        plus, minus = mother.pair(w)
        assert plus.tobytes() == mother(w).tobytes()
        assert minus.tobytes() == mother(-w).tobytes()
    # a whole (octave, frequency) grid, as the condition checks evaluate it
    x = np.ldexp(np.arange(0.0, 129.0), np.arange(-7, 1)[:, None])
    plus, minus = mother.pair(x)
    assert (plus.tobytes(), minus.tobytes()) == (mother(x).tobytes(), mother(-x).tobytes())


def test_morlet_pair_takes_three_exp_calls_per_mirrored_pair(monkeypatch):
    bank = build_bank(morlet_mother(), 0, 256)
    grid = np.geomspace(2.0**-8, 128.0, 2001)
    # every octave j = -33..0 reaches the grid, and the mother takes all of its entries
    octaves = np.count_nonzero(reference_terms(bank.mother, grid)[0] <= bank.j_max)
    seen = []
    exp = np.exp
    arguments = []

    def counting(x, *args, **kwargs):
        arguments.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    _octave_sums(_recording(bank.mother, seen), grid, lambda j, w, p, m: (p + m,), bank.j_max)
    pairs = sum(a.size for a in seen)
    assert pairs == octaves * grid.size == 34 * 2001
    assert sum(arguments) == 3 * pairs


def test_term_grid_rejects_nonpositive():
    # a zero, a negative, a descending pair, a NaN and an empty grid
    for omegas in ([0.0, 1.0], [-1.0, 1.0], [2.0, 1.0], [1.0, math.nan], []):
        with pytest.raises(ValueError):
            _octave_sums(shannon_mother(), np.array(omegas), lambda j, w, p, m: (p,))
    # ideal_lp_sum takes any order, but not a nonpositive frequency
    with pytest.raises(ValueError):
        ideal_lp_sum(shannon_mother(), [3.0, 0.0])


def test_bank_sum_matches_ideal_inside_validated_band():
    bank = build_bank(morlet_mother(), 0, 256)
    lo, hi = bank.validated_band
    w = np.arange(lo, hi + 1)
    # filters sit on the centered grid, where frequency w is at index N/2 + w
    power = sum(np.abs(bank.filters[j].coeffs) ** 2 for j in bank.scales)
    kept = 0.5 * (power[bank.n // 2 + w] + power[bank.n // 2 - w])
    assert np.max(np.abs(kept - ideal_lp_sum(bank.mother, w.astype(float)))) <= 1e-3


# --- condition checks ------------------------------------------------------


def test_littlewood_paley_shannon_margin_is_zero_to_roundoff():
    report = check_littlewood_paley(build_bank(shannon_mother(), 0, 256))
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=4e-16)
    assert report.witness_freq == 2.0


def test_littlewood_paley_morlet():
    report = check_littlewood_paley(build_bank(morlet_mother(), 0, 256))
    assert report.passed
    assert 0.44 < report.margin < 0.46


def test_bandpass_amplitude_float64_cannot_square_is_refused():
    # at most ceil(log2(hi / lo)) octaves meet one frequency: 1 on (1, 2], 4 on (1, 16]
    for hi, amplitude in [(2.0, 1e154), (16.0, 5e153)]:
        report = check_littlewood_paley(build_bank(bandpass_mother(1.0, hi, amplitude), 0, 256))
        assert report.details["max_sum"] == 5e307
    with pytest.raises(ValueError, match=r"^bandpass amplitude 1e\+154 .* amplitude\^2 \* 4, which "):
        bandpass_mother(1.0, 16.0, 1e154)


def test_littlewood_paley_rejects_inflated_amplitude():
    # 1.1x the tight octave indicator overshoots: margin 1 - 1.21
    loud = bandpass_mother(1.0, 2.0, amplitude=1.1 * math.sqrt(2.0))
    report = check_littlewood_paley(build_bank(loud, 0, 256))
    assert not report.passed
    assert report.margin == pytest.approx(-0.21, abs=1e-12)


def test_asymmetry_shannon():
    report = check_asymmetry(build_bank(shannon_mother(), 0, 256))
    assert report.passed
    assert report.margin == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_asymmetry_morlet():
    report = check_asymmetry(build_bank(morlet_mother(), 0, 256))
    assert report.passed
    assert report.margin > 0.5


def test_asymmetry_even_profile_fails_with_zero_margin():
    report = check_asymmetry(build_bank(even_morlet_mother(), 0, 256))
    assert not report.passed
    assert report.margin == 0.0
    assert report.details["per_octave_ok"]


@pytest.mark.parametrize(
    "mother, j_max, n",
    [
        (morlet_mother(), 0, 256),
        (shannon_mother(), 0, 256),
        (even_morlet_mother(), 0, 128),
        (bandpass_mother(1.05, 1.25), -3, 64),
        (morlet_mother(2.7, 0.9), 1, 512),
    ],
)
def test_octave_grid_checks_match_per_octave_loops(mother, j_max, n):
    # the per-octave loops the checks replaced, kept as the bitwise reference
    bank = build_bank(mother, j_max, n)
    omegas = np.arange(0, n // 2 + 1, dtype=np.float64)
    total = np.zeros_like(omegas)
    for j in bank.scales:
        x = np.ldexp(omegas, j)
        total += 0.5 * (mother(x) ** 2 + mother(-x) ** 2)
    lp = check_littlewood_paley(bank)
    assert repr(lp.details["max_sum"]) == repr(float(total.max()))
    assert lp.witness_freq == float(omegas[np.argmax(total)])

    lo, hi = bank.validated_band
    band = np.arange(lo, hi + 1, dtype=np.float64)
    gaps = [np.abs(mother(np.ldexp(band, j))) - np.abs(mother(-np.ldexp(band, j)))
            for j in bank.scales]
    best = np.max(gaps, axis=0)
    asym = check_asymmetry(bank)
    assert asym.details["per_octave_ok"]
    assert repr(asym.margin) == repr(float(best.min()))
    assert asym.witness_freq == float(band[np.argmin(best)])


# each builder's declared order, from the closed form in its docstring; the two bands
# reach 5e-4 and 0.01, where the profile is 0 on (-lo, lo) as for any band
DECLARED_ORDERS = {
    "morlet": (morlet_mother(), 2.0),
    "morlet_first_order": (morlet_first_order_mother(), 1.0),
    "even_morlet": (even_morlet_mother(), 2.0),
    "shannon": (shannon_mother(), math.inf),
    "bandpass-wide": (bandpass_mother(5e-4, 2.0), math.inf),
    "bandpass-narrow": (bandpass_mother(0.01, 0.02), math.inf),
}


@pytest.mark.parametrize("case", sorted(DECLARED_ORDERS))
def test_order_estimate_reads_the_declared_order(case):
    mother, order = DECLARED_ORDERS[case]
    assert mother.order == order
    # the check never evaluates the profile: a mother without one gets the same report
    report = estimate_vanishing_order(replace(mother, pair=None))
    assert report == estimate_vanishing_order(mother)
    assert report.details == {"order": order, "epsilon_hat": order - 1.0, "threshold": 0.05}
    assert report.margin == order - 1.0 - 0.05
    assert report.passed == (order >= 1.05)


# psi_hat(w) / w^order as w -> 0, in the terms of the builders' docstrings:
# kappa g (e^t - 1 - t), kappa g (e^t - 1) and sqrt(2) kappa g (cosh t - 1)
CLOSED_FORM_LIMITS = {
    "morlet": (morlet_mother, lambda kappa, c, s: kappa * c**2 / (2.0 * s**4)),
    "morlet_first_order": (morlet_first_order_mother, lambda kappa, c, s: kappa * c / s**2),
    "even_morlet": (even_morlet_mother, lambda kappa, c, s: kappa * c**2 / (math.sqrt(2.0) * s**4)),
}


@pytest.mark.parametrize("center, width", [(3.0, 1.0), (2.5, 0.8), (3.5, 1.2)])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_LIMITS))
def test_declared_order_has_its_closed_form_limit(name, center, width):
    builder, limit = CLOSED_FORM_LIMITS[name]
    mother = builder(center, width)
    want = limit(math.exp(-(center**2) / (2.0 * width**2)), center, width)
    for w in (1e-3, 1e-4, 1e-5):
        # the next term of each series is at most t / 2 = center w / (2 width^2) of the limit
        ratio = float(mother(w)) / w**mother.order
        assert ratio == pytest.approx(want, rel=center * w / width**2), w


@pytest.mark.parametrize("mother", [shannon_mother(), bandpass_mother(5e-4, 2.0), bandpass_mother(0.01, 0.02),
                                    bandpass_mother(1e-8, 16.0), bandpass_mother(0.3, 0.3000001, 7.0)],
                         ids=["shannon", "wide", "narrow", "window", "thin"])
def test_indicator_is_zero_below_its_band(mother):
    # 0.0 exactly on (-lo, lo), and at lo itself, as the band is (lo, hi]: order inf
    lo = mother.params.get("lo", 1.0)
    w = np.concatenate((np.linspace(0.0, lo, 1001), [np.nextafter(lo, 0.0), 5e-324]))
    plus, minus = mother.pair(w)
    assert mother.order == math.inf
    assert not np.any(plus) and not np.any(minus)


# the three check payloads at N=256, J=0, pinned as strings: a mistyped
# tolerance, threshold or declared order changes one
PINNED_CHECK_PAYLOADS = {
    "morlet": (
        '{"condition": "littlewood_paley", "details": {"grid": "0..128", "max_sum": '
        '0.5505478053321926}, "margin": 0.4494521946678074, "passed": true, "tolerance": '
        '1e-09, "witness_freq": 99.0}',
        '{"condition": "asymmetry", "details": {"band": [3, 127], "per_octave_ok": true}, '
        '"margin": 0.6064412200136062, "passed": true, "tolerance": 1e-12, "witness_freq": 4.0}',
        '{"condition": "vanishing_order", "details": {"epsilon_hat": 1.0, "order": 2.0, "threshold": '
        '0.05}, "margin": 0.95, "passed": true, "tolerance": 0.0, "witness_freq": null}',
    ),
    "shannon": (
        '{"condition": "littlewood_paley", "details": {"grid": "0..128", "max_sum": '
        '1.0000000000000002}, "margin": -2.220446049250313e-16, "passed": true, "tolerance": '
        '1e-09, "witness_freq": 2.0}',
        '{"condition": "asymmetry", "details": {"band": [2, 127], "per_octave_ok": true}, '
        '"margin": 1.4142135623730951, "passed": true, "tolerance": 1e-12, "witness_freq": 2.0}',
        '{"condition": "vanishing_order", "details": {"epsilon_hat": Infinity, "order": Infinity, '
        '"threshold": 0.05}, "margin": Infinity, "passed": true, "tolerance": 0.0, "witness_freq": null}',
    ),
    "even_morlet": (
        '{"condition": "littlewood_paley", "details": {"grid": "0..128", "max_sum": '
        '0.5560043789614468}, "margin": 0.44399562103855317, "passed": true, "tolerance": '
        '1e-09, "witness_freq": 99.0}',
        '{"condition": "asymmetry", "details": {"band": [3, 127], "per_octave_ok": true}, '
        '"margin": 0.0, "passed": false, "tolerance": 1e-12, "witness_freq": 3.0}',
        '{"condition": "vanishing_order", "details": {"epsilon_hat": 1.0, "order": 2.0, "threshold": '
        '0.05}, "margin": 0.95, "passed": true, "tolerance": 0.0, "witness_freq": null}',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK_PAYLOADS))
def test_check_reports_are_pinned(name):
    bank = build_bank(make_mother(name), 0, 256)
    reports = (
        check_littlewood_paley(bank),
        check_asymmetry(bank),
        estimate_vanishing_order(bank.mother),
    )
    got = tuple(json.dumps(r.to_payload(), sort_keys=True) for r in reports)
    assert got == PINNED_CHECK_PAYLOADS[name]


def test_condition_report_payload_round_trips_through_json():
    report = check_littlewood_paley(build_bank(morlet_mother(), 0, 64))
    payload = json.loads(json.dumps(report.to_payload()))
    assert payload["condition"] == "littlewood_paley"
    assert payload["passed"] is True
    assert isinstance(payload["margin"], float)


# --- serialization ---------------------------------------------------------


def test_bank_round_trip(tmp_path):
    bank = build_bank(morlet_mother(2.5, 0.8), -1, 128, j_min=-5)
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    loaded = load_bank(path)
    assert loaded.j_max == -1 and loaded.j_min == -5 and loaded.n == 128
    assert loaded.mother.name == "morlet"
    assert loaded.mother.params == {"center": 2.5, "width": 0.8}
    for j in bank.scales:
        assert np.array_equal(loaded.filters[j].coeffs, bank.filters[j].coeffs)


def test_load_bank_rejects_unknown_mother(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"mother": {"name": "haar", "params": {}}, "J": 0, "N": 64}))
    with pytest.raises(ValueError):
        load_bank(path)


def test_load_bank_rejects_missing_fields(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"J": 0, "N": 64}))
    with pytest.raises(ValueError):
        load_bank(path)
