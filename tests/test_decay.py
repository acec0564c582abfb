import json
import math
from dataclasses import replace

import numpy as np
import pytest

from scatdecay import decay, filterbank, scattering
from scatdecay.decay import (
    _raised_cosine_window,
    compute_constants,
    compute_F1,
    compute_F2,
    compute_S,
    initialize_lowpass,
    initialize_x,
    lemma1_check,
    lemma2_envelope_check,
    verify_decay,
)
from scatdecay.errors import (
    BankConditionError,
    BudgetExceededError,
    CoverageHoleError,
    DegenerateOctaveError,
    ScatdecayError,
    VanishingOrderError,
    WeakAsymmetryError,
)
from scatdecay.filterbank import (
    X_WINDOW,
    MotherWavelet,
    bandpass_mother,
    build_bank,
    check_asymmetry,
    check_littlewood_paley,
    estimate_vanishing_order,
    even_morlet_mother,
    ideal_lp_sum,
    morlet_first_order_mother,
    morlet_mother,
    shannon_mother,
)
from scatdecay.signals import Signal, band_limited_signal, complex_tone, energy


def cosine(n, omega):
    t = np.arange(n) / n
    return Signal(np.cos(2 * np.pi * omega * t), real=True)


# --- functionals -------------------------------------------------------------


def test_octave_indicator_closed_forms(shannon_bank):
    # one octave catches each frequency: S = 1, F1 = 2^-j, F2 = 2^-2j,
    # where j is the octave with 2^j w in (1, 2]
    s = compute_S(shannon_bank)
    f1 = compute_F1(shannon_bank)
    f2 = compute_F2(shannon_bank)
    probe = {3: (2.0, 4.0), 4: (2.0, 4.0), 5: (4.0, 16.0), 8: (4.0, 16.0),
             12: (8.0, 64.0), 127: (64.0, 4096.0)}
    for g, (want1, want2) in probe.items():
        i = int(np.flatnonzero(s.omegas == g)[0])
        assert s.values[i] == pytest.approx(1.0, abs=3e-16)
        assert f1.values[i] == want1
        assert f2.values[i] == want2


def test_functional_homogeneity_is_bitwise(morlet_bank):
    f1 = compute_F1(morlet_bank)
    f2 = compute_F2(morlet_bank)
    lo, hi = f1.band
    for w in range(lo, hi // 2 + 1):
        i = int(np.flatnonzero(f1.omegas == w)[0])
        k = int(np.flatnonzero(f1.omegas == 2 * w)[0])
        assert f1.values[k] == 2.0 * f1.values[i]
        assert f2.values[k] == 4.0 * f2.values[i]


def test_functionals_need_coverage():
    # octaves far above the grid leave every integer uncovered
    stranded = build_bank(morlet_mother(), 6, 64, j_min=5)
    assert stranded.validated_band is None
    with pytest.raises(CoverageHoleError):
        compute_S(stranded)


def test_functionals_reject_holes_inside_band():
    # mass only on the orbit of 1.5, the integers 3, 6, 12, ...: every other integer is a
    # hole, which the band leaves out, so the band is the first of the one-integer runs
    spiky = build_bank(bandpass_mother(1.5 - 1e-9, 1.5), 0, 256)
    assert spiky.validated_band == (3, 3)
    assert np.all(compute_S(spiky).values > filterbank._MASS_FLOOR)


# --- initial window ----------------------------------------------------------


def test_window_construction_invariants(shannon_bank):
    init = initialize_lowpass(shannon_bank)
    assert init.alpha_tilde == pytest.approx(4.0, abs=1e-12)
    assert float(init.phi_hat(0.0)) == 1.0
    assert float(np.max(init.phi_values)) <= 1.0
    assert float(init.phi_hat(10.0)) == 0.0
    # sup of covered curvature sits just above the octave edge, not at 1/4
    assert init.curvature_sup == pytest.approx(1.0 - 2e-9, rel=1e-6)
    assert init.m_scale == pytest.approx(0.5000005, rel=1e-6)


def test_window_curvature_morlet(morlet_bank):
    init = initialize_lowpass(morlet_bank)
    assert repr(init.curvature_sup) == "0.06628021430951153"
    assert repr(init.m_scale) == "0.1287248488734852"


def reference_window():
    """Raw-numpy window: raised cosine, its autocorrelation, alpha_tilde."""
    points = 1 << 14
    xi = np.linspace(-0.25, 0.25, points + 1)
    gamma = np.cos(2.0 * np.pi * xi) ** 2
    gamma = gamma / math.sqrt(float(np.trapezoid(gamma**2, xi)))
    phi0 = np.convolve(gamma, gamma) * (xi[1] - xi[0])
    phi0 = phi0 / phi0[points]
    u = np.linspace(-0.5, 0.5, 2 * points + 1)
    inner = u != 0.0
    return u, phi0, float(np.min((1.0 - phi0[inner] ** 2) / u[inner] ** 2))


def test_window_matches_reference_bitwise(shannon_bank):
    u, phi0, alpha_tilde = reference_window()
    init = initialize_lowpass(shannon_bank)
    assert init.phi_grid.tobytes() == u.tobytes()
    # the table is the autocorrelation's closed form, within rounding of the convolution
    assert float(np.max(np.abs(init.phi_values - phi0))) <= 1e-15
    a = np.abs(u)
    t = 4.0 * np.pi * a
    closed = ((1.0 - 2.0 * a) * (2.0 + np.cos(t)) + 3.0 / (2.0 * np.pi) * np.sin(t)) / 3.0
    assert init.phi_values.tobytes() == closed.tobytes()
    # (1 - phi0^2) / u^2 is least at the support's edge |u| = 1/2, in both
    assert repr(init.alpha_tilde) == repr(alpha_tilde) == "4.0"


def test_window_is_shared_and_read_only(shannon_bank, morlet_bank):
    a = initialize_lowpass(shannon_bank)
    b = initialize_lowpass(morlet_bank)
    assert a.phi_grid is b.phi_grid
    assert a.phi_values is b.phi_values
    with pytest.raises(ValueError):
        a.phi_values[0] = 0.5
    with pytest.raises(ValueError):
        a.phi_grid[0] = 0.5


def test_constants_same_cold_and_warm(morlet_bank):
    _raised_cosine_window.cache_clear()
    cold = json.dumps(compute_constants(morlet_bank).to_payload())
    warm = json.dumps(compute_constants(morlet_bank).to_payload())
    info = _raised_cosine_window.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert cold == warm


def _in_order(rows):
    """Rows added one at a time in ascending j, the order of every octave sum."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def reference_terms(mother, omegas):
    """Octaves js and |psi_hat(+-2^j w)|^2 on the whole (octave, frequency) grid, 0.0 outside X_WINDOW."""
    j_lo = math.ceil(math.log2(X_WINDOW[0] / omegas.max()))
    j_hi = math.floor(math.log2(X_WINDOW[1] / omegas.min()))
    js = np.arange(j_lo, j_hi + 1)
    x = np.ldexp(omegas[None, :], js[:, None])
    keep = (x >= X_WINDOW[0]) & (x <= X_WINDOW[1])
    return js, np.where(keep, mother(x) ** 2, 0.0), np.where(keep, mother(-x) ** 2, 0.0)


def reference_octave_sums(bank, omegas):
    """S, F1 and F2 numerators and the j <= j_max sum, on the whole grid at once."""
    js, p, m = reference_terms(bank.mother, omegas)
    w1 = np.ldexp(1.0, -js)[:, None]
    return (
        0.5 * (_in_order(p) + _in_order(m)),
        0.5 * _in_order((p - m) * w1),
        0.5 * _in_order((p + m) * w1 * w1),
        0.5 * _in_order(np.where((js <= bank.j_max)[:, None], p + m, 0.0)),
    )


def lognormal_mother():
    """Analytic bump spread over many octaves: its octave sums have many
    terms of one size, so the order in which a sum adds them shows in its bits.
    It falls faster than any power of w at zero, so its order is inf."""

    def side(w):
        return np.exp(-np.log2(np.maximum(w, 1e-300)) ** 2 / 8.0) * (w > 0)

    return MotherWavelet("lognormal", {}, lambda w: (side(w), side(-w)), order=math.inf)


def _constant_grid(kind, n):
    """One of the ascending grids the constants take octave sums on, for the N-point Morlet bank."""
    bank = build_bank(morlet_mother(), 0, n)
    lo, hi = bank.validated_band
    return {
        "samples": decay._octave_samples(bank),
        "curvature": decay._curvature_sums(bank)[0],
        "band": np.arange(lo, hi + 1, dtype=np.float64),
    }[kind]


@pytest.mark.parametrize("block, size", [(1, 1), (1, 2), (7, 6), (7, 7), (7, 8)])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother, lognormal_mother])
def test_blocked_octave_sums_match_unblocked(make, block, size):
    bank = build_bank(make(), 0, 256)
    # at both ends of this grid a lognormal column summed pairwise, as
    # np.sum does a lone column, differs
    omegas = np.geomspace(0.1, 115.0, size)
    want = reference_octave_sums(bank, omegas)
    got = (*decay._functional_terms(bank, omegas), decay._lp_up_to_coarsest(bank, omegas))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # each block of columns alone spans its own octave range and gives the same bits
    parts = [omegas[i : i + block] for i in range(0, size, block)]
    blocked = [
        (*decay._functional_terms(bank, part), decay._lp_up_to_coarsest(bank, part)) for part in parts
    ]
    joined = [np.concatenate([b[k] for b in blocked]) for k in range(4)]
    assert [g.tobytes() for g in joined] == [w.tobytes() for w in want]


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
@pytest.mark.parametrize("kind", ["samples", "curvature", "band", "integers"])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother, lognormal_mother])
def test_octave_block_size_does_not_change_bits(make, kind, block, monkeypatch):
    bank = build_bank(make(), 0, 256)
    if kind == "integers":  # the window check's grid 1..N/2
        omegas = np.arange(1.0, 129.0)
    else:  # a strided subset, and its last point, keeps the one-entry blocks few
        grid = _constant_grid(kind, 256)
        omegas = np.append(grid[: -1 : grid.size // 60], grid[-1])

    def sums():
        got = [*decay._functional_terms(bank, omegas), decay._lp_up_to_coarsest(bank, omegas)]
        if kind == "integers":
            got.append(np.array(filterbank._validated_band(bank.mother, bank.j_min, bank.j_max, bank.n)))
        if kind == "curvature" and block > 1:
            got.extend(decay._curvature_sums(bank))
        return [g.tobytes() for g in got]

    want = sums()
    monkeypatch.setattr(filterbank, "_OCTAVE_BLOCK", block)
    assert sums() == want


def test_sum_up_to_coarsest_is_zero_where_no_octave_reaches():
    # every octave j <= -40 puts the grid's top, 32, below the window's floor 1e-8
    bank = build_bank(morlet_mother(), -40, 64)
    grid, _ = decay._curvature_sums(bank)
    assert decay._lp_up_to_coarsest(bank, grid).tobytes() == np.zeros(grid.size).tobytes()


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize(
    "make, j_max",
    [(morlet_mother, 0), (shannon_mother, 0), (lognormal_mother, 0), (morlet_mother, -3), (morlet_mother, -40)],
)
def test_doubling_step_matches_direct_sum_on_curvature_grid(make, j_max, n):
    bank = build_bank(make(), j_max, n)
    half = n // 2
    grid, got = decay._curvature_sums(bank)
    assert got.tobytes() == decay._lp_up_to_coarsest(bank, grid).tobytes()
    if j_max == -40:  # 2^-40 * N/2 is below the window's floor 1e-8: no octave reaches the grid
        assert got.tobytes() == np.zeros(grid.size).tobytes()
    # one octave [2^-8, 2^-7) of 1,334 log-spaced points and the edge point,
    # copied exactly to each octave below N/2, then the edge pair at N/2
    base = np.insert(np.geomspace(2.0**-8, 2.0**-7, 1334, endpoint=False), 1, 2.0**-8 * (1.0 + 1e-9))
    rows = grid[:-2].reshape(-1, base.size)
    assert len(rows) == int(math.log2(half)) + 8
    for k, row in enumerate(rows):
        assert row.tobytes() == (base * 2.0**k).tobytes()
    edges = [2.0**k * s for k in range(-8, int(math.log2(half)) + 1) for s in (1.0, 1.0 + 1e-9)]
    assert np.all(np.isin(edges, grid))
    assert np.all(grid[1:] > grid[:-1])
    assert grid[-2:].tobytes() == np.array([half, half * (1.0 + 1e-9)]).tobytes()


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("kind", ["samples", "curvature", "band"])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother, lognormal_mother])
def test_octave_slice_sums_match_whole_grid(make, kind, n):
    # the ascending grids the constants themselves take octave sums on
    bank = build_bank(make(), 0, 256)
    omegas = _constant_grid(kind, n)
    got = (*decay._functional_terms(bank, omegas), decay._lp_up_to_coarsest(bank, omegas))
    want = reference_octave_sums(bank, omegas)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert ideal_lp_sum(bank.mother, omegas).tobytes() == want[0].tobytes()
    # in any order, or as a list, each frequency keeps the bits it has in the ascending grid
    shuffle = np.random.default_rng(n).permutation(omegas.size)
    assert ideal_lp_sum(bank.mother, list(omegas[shuffle])).tobytes() == want[0][shuffle].tobytes()


def reference_validated_band(bank):
    """Widest run of integers in 1..N/2-1 where the j_min..j_max sum is above 1e-12 and within 1e-3 of the full one."""
    omegas = np.arange(1, bank.n // 2, dtype=np.float64)
    js, p, m = reference_terms(bank.mother, omegas)
    full = 0.5 * (_in_order(p) + _in_order(m))
    retained = ((js >= bank.j_min) & (js <= bank.j_max))[:, None]
    kept = 0.5 * _in_order(np.where(retained, p + m, 0.0))
    best, start = None, None
    for i, ok in enumerate([*((np.abs(full - kept) <= 1e-3) & (kept > 1e-12)), False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if best is None or i - start > best[1] - best[0] + 1:  # the first of a tie
                best = (start + 1, i)  # the run's integers, omegas[start] to omegas[i - 1]
            start = None
    return best


@pytest.mark.parametrize("n", [64, 256, 2048])
@pytest.mark.parametrize(
    "make",
    [morlet_mother, lambda: morlet_mother(2.7, 0.9), shannon_mother,
     lambda: bandpass_mother(1.0, 1.5), lognormal_mother],
)
def test_validated_band_matches_reference(make, n):
    # default, narrow, shifted and one-octave ranges: full, partial and no coverage
    for j_max, j_min in [(0, None), (0, -3), (2, -2), (-1, -1)]:
        bank = build_bank(make(), j_max, n, j_min=j_min)
        assert bank.validated_band == reference_validated_band(bank), (j_max, j_min)


def reference_lemma2_gaps(bank, constants, x):
    """rhs - lhs of ``lemma2_envelope_check`` at every validated frequency, on the whole grid."""
    lo, hi = bank.validated_band
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    js, p, m = reference_terms(bank.mother, omegas)
    centers = constants.delta * np.ldexp(1.0, -js)[:, None]
    loss_pos = 1.0 - np.exp(-2.0 * ((omegas - centers) / x) ** 2)
    loss_neg = 1.0 - np.exp(-2.0 * ((-omegas - centers) / x) ** 2)
    lhs = 0.5 * _in_order(p * loss_pos + m * loss_neg)
    return omegas, 1.0 - np.exp(-2.0 * (omegas / (constants.a * x)) ** 2) - lhs


@pytest.mark.parametrize("which", ["shannon", "morlet"])
def test_lemma2_gaps_match_reference(which, request):
    bank = request.getfixturevalue(f"{which}_bank")
    cst = request.getfixturevalue(f"{which}_constants")
    for n in range(2, 6):
        x = cst.r * cst.a**n
        omegas, gaps = reference_lemma2_gaps(bank, cst, x)
        report = lemma2_envelope_check(bank, cst, x)
        k = int(np.argmin(gaps))
        assert (repr(report.margin), repr(report.witness_freq)) == (repr(float(gaps[k])), repr(float(omegas[k])))
        # a one-frequency band reads off the gap at that frequency
        singles = [
            lemma2_envelope_check(replace(bank, validated_band=(w, w)), cst, x).margin
            for w in range(int(omegas[0]), int(omegas[-1]) + 1)
        ]
        assert repr(singles) == repr(gaps.tolist())


def test_lognormal_sums_see_the_summation_order():
    bank = build_bank(lognormal_mother(), 0, 256)
    for w in (0.1, 115.0):
        js, p, m = reference_terms(bank.mother, np.array([w]))
        lp = np.where((js <= bank.j_max)[:, None], p + m, 0.0)
        assert np.sum(lp, axis=0)[0] != _in_order(lp)[0]


def test_single_frequency_octave_sum_matches_grid():
    # a lone frequency gets the same in-order sum as inside a longer grid;
    # summed pairwise, 7 of these 400 lognormal sums differed in the last bit
    mother = lognormal_mother()
    grid = np.arange(1.0, 401.0)
    alone = np.array([ideal_lp_sum(mother, [w])[0] for w in grid])
    assert alone.tobytes() == ideal_lp_sum(mother, grid).tobytes()


def test_constants_octave_sums_stay_inside_window():
    base = morlet_mother()
    seen = []

    def recording(w):
        seen.append(np.array(w))
        return base.pair(w)

    bank = build_bank(replace(base, pair=recording), 0, 256)
    seen.clear()  # the filters themselves are sampled on the whole grid
    initialize_x(bank)
    for functional in (compute_S, compute_F1, compute_F2):
        functional(bank)
    decay._functional_terms(bank, decay._octave_samples(bank))
    args = np.abs(np.concatenate([a.ravel() for a in seen]))
    assert X_WINDOW[0] <= args.min() and args.max() <= X_WINDOW[1]


def test_window_refuses_first_order_profile():
    # compute_constants' message, from the one order check every entry point makes first
    bank = build_bank(morlet_first_order_mother(), 0, 256)
    for entry in (initialize_lowpass, initialize_x):
        with pytest.raises(VanishingOrderError, match=r"^near-zero decay order 0\.0000 below 0\.05$"):
            entry(bank)


def test_constants_estimate_the_order_once(monkeypatch):
    calls = []

    def counting(mother):
        calls.append(mother)
        return estimate_vanishing_order(mother)

    monkeypatch.setattr(decay, "estimate_vanishing_order", counting)
    bank = build_bank(morlet_mother(), 0, 256)
    compute_constants(bank)
    assert calls == [bank.mother]


def test_width_search_shannon(shannon_bank):
    assert initialize_x(shannon_bank) == 2.0**0.25


def test_width_search_morlet(morlet_bank):
    assert initialize_x(morlet_bank) == 2.0**2.25


def test_width_search_stable_across_grid_size():
    for n in (256, 512):
        bank = build_bank(shannon_mother(), 0, n)
        assert initialize_x(bank) == 2.0**0.25


# --- constants ----------------------------------------------------------------


def test_shannon_constants(shannon_constants):
    cst = shannon_constants
    assert cst.c == pytest.approx(0.5, abs=1e-12)
    assert cst.C == pytest.approx(1.0, abs=1e-9)
    assert cst.delta == pytest.approx(0.5, abs=1e-9)
    assert cst.a == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert cst.x_init == 2.0**0.25
    assert cst.r == pytest.approx(cst.x_init / cst.a**2, rel=1e-15)
    assert cst.band == (2, 127)


def test_morlet_constants(morlet_constants):
    cst = morlet_constants
    assert cst.c == pytest.approx(0.3473713972684626, rel=1e-12)
    assert cst.C == pytest.approx(0.19758656100340516, rel=1e-12)
    assert cst.delta == pytest.approx(1.7580719837645036, rel=1e-12)
    assert cst.a == pytest.approx(1.6027285952974988, rel=1e-12)
    assert cst.x_init == 2.0**2.25
    assert cst.band == (3, 127)
    assert cst.margins["x_condition"] > 0.005


# Exact constants and margins of nine banks: a change to how the constants
# are computed must keep these bits, or say why they moved.  They are the
# same in both NumPy kernel families.
PINNED_CONSTANTS = {
    "shannon-256": (
        (shannon_mother, 256),
        {"c": 0.5, "C": 0.9999999999979998, "delta": 0.5000000000010001,
         "a": 1.1547005383796365, "x_init": 1.189207115002721,
         "r": 0.8919053362514461},
        {"littlewood_paley": -2.220446049250313e-16,
         "vanishing_order_epsilon": math.inf,
         "octave_gap": 0.7499999999979998,
         "x_condition": -2.220446049250313e-16},
    ),
    "morlet(3,1)-256": (
        (lambda: morlet_mother(3.0, 1.0), 256),
        {"c": 0.3473713972684626, "C": 0.19758656100340516,
         "delta": 1.7580719837645036, "a": 1.6027285952974988,
         "x_init": 4.756828460010884, "r": 1.851814665585075},
        {"littlewood_paley": 0.4494521946678074,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.07691967336316108,
         "x_condition": 0.006786122621667112},
    ),
    "morlet-1024": (
        (morlet_mother, 1024),
        {"c": 0.3473713972684626, "C": 0.19758656100340516,
         "delta": 1.7580719837645036, "a": 1.6027285952974988,
         "x_init": 4.756828460010884, "r": 1.851814665585075},
        {"littlewood_paley": 0.4493801887513936,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.07691967336316108,
         "x_condition": 0.006786122621667112},
    ),
    "morlet-2048": (
        (morlet_mother, 2048),
        {"c": 0.3473713972684626, "C": 0.19758656100340516,
         "delta": 1.7580719837645036, "a": 1.6027285952974988,
         "x_init": 4.756828460010884, "r": 1.851814665585075},
        {"littlewood_paley": 0.4493799673608482,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.07691967336316108,
         "x_condition": 0.006786122621667112},
    ),
    "morlet(2.7,0.9)-512": (
        (lambda: morlet_mother(2.7, 0.9), 512),
        {"c": 0.3859682190695814, "C": 0.2439340100809522,
         "delta": 1.5822648877107934, "a": 1.6027286762113149,
         "x_init": 4.756828460010884, "r": 1.8518144786072168},
        {"littlewood_paley": 0.4493841324791308,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.0949625439492078,
         "x_condition": 0.024090245653892395},
    ),
    "morlet(3.4,1.15)-256": (
        (lambda: morlet_mother(3.4, 1.15), 256),
        {"c": 0.308004461127083, "C": 0.1542189600912259,
         "delta": 1.997189327076824, "a": 1.6119457829954882,
         "x_init": 6.727171322029716, "r": 2.588997476989099},
        {"littlewood_paley": 0.4467116193816829,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.059352212017041106,
         "x_condition": 0.017442240387465335},
    ),
    # the one pin the closed-form window moved: x_condition was 0.03838979506200413 in
    # both families while the window was a direct convolution, 5.6e-16 away at most
    "morlet(2.3,1)-256": (
        (lambda: morlet_mother(2.3, 1.0), 256),
        {"c": 0.4685818474139804, "C": 0.3414394778375143,
         "delta": 1.3723716143830653, "a": 1.673815235788457,
         "x_init": 4.756828460010884, "r": 1.697862267547821},
        {"littlewood_paley": 0.4297259576298671,
         "vanishing_order_epsilon": 1.0,
         "octave_gap": 0.12187053011161553,
         "x_condition": 0.03838979506200402},
    ),
    # j_min = -6 instead of the default -9: the validated band is 2..128
    "shannon(j_min=-6)-1024": (
        (shannon_mother, 1024, -6),
        {"c": 0.5, "C": 0.9999999999979998, "delta": 0.5000000000010001,
         "a": 1.1547005383796365, "x_init": 1.189207115002721,
         "r": 0.8919053362514461},
        {"littlewood_paley": -2.220446049250313e-16,
         "vanishing_order_epsilon": math.inf,
         "octave_gap": 0.7499999999979998,
         "x_condition": -2.220446049250313e-16},
    ),
    # j_min = -5 instead of the default -7: the validated band shrinks to 2..64
    "shannon(j_min=-5)-256": (
        (shannon_mother, 256, -5),
        {"c": 0.5, "C": 0.9999999999979998, "delta": 0.5000000000010001,
         "a": 1.1547005383796365, "x_init": 1.189207115002721,
         "r": 0.8919053362514461},
        {"littlewood_paley": -2.220446049250313e-16,
         "vanishing_order_epsilon": math.inf,
         "octave_gap": 0.7499999999979998,
         "x_condition": -2.220446049250313e-16},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CONSTANTS))
def test_constants_bits_are_pinned(case):
    (mother, n, *j_min), scalars, margins = PINNED_CONSTANTS[case]
    cst = compute_constants(build_bank(mother(), 0, n, *j_min))
    got = {name: getattr(cst, name) for name in scalars}
    # repr round-trips a float exactly, so equal reprs mean equal bits
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in scalars.items()}
    assert {k: repr(v) for k, v in cst.margins.items()} == {k: repr(v) for k, v in margins.items()}


def test_morlet_width_margin_is_the_same_at_every_size():
    # the curvature grids of N = 256, 1024 and 2048 share their base octave, and
    # the Morlet(3, 1) curvature sup and width search land on the same bits
    margins = {
        repr(compute_constants(build_bank(morlet_mother(3.0, 1.0), 0, n)).margins["x_condition"])
        for n in (256, 1024, 2048)
    }
    assert len(margins) == 1, margins


def _full_row_smoothed_window_sq(init, omegas):
    """(|phi_hat|^2 * g)(w) with exp and np.trapezoid over every support point of every row."""
    support = init.phi_grid / init.m_scale
    values = init.phi_values**2
    out = np.zeros(omegas.shape)
    for i, w in enumerate(omegas):
        kernel = np.exp(-((w - support) ** 2)) / math.sqrt(math.pi)
        out[i] = np.trapezoid(values * kernel, support)
    return out


@pytest.mark.parametrize("case", ["morlet(3,1)-256", "morlet(2.7,0.9)-512", "shannon(j_min=-5)-256"])
def test_smoothed_window_matches_full_row_quadrature(case):
    (mother, n, *j_min), _, _ = PINNED_CONSTANTS[case]
    bank = build_bank(mother(), 0, n, *j_min)
    init = initialize_lowpass(bank)
    lo, hi = bank.validated_band
    # the band the width search smooths on, and a grid off the integers out past exp's reach
    omegas = np.concatenate([np.arange(lo, hi + 1, dtype=np.float64), np.linspace(-40.0, 40.0, 161)])
    got = decay._smoothed_window_sq(init, omegas)
    assert got.tobytes() == _full_row_smoothed_window_sq(init, omegas).tobytes()
    support = init.phi_grid / init.m_scale
    tiny = np.finfo(np.float64).tiny
    kinds = set()
    for w in omegas:
        kernel = np.exp(-((w - support) ** 2))
        if kernel.max() == 0.0:
            kinds.add("zero")
        elif np.any((kernel > 0.0) & (kernel < tiny)):
            kinds.add("partly subnormal")
        elif kernel.min() >= tiny:
            kinds.add("normal")
    assert kinds == {"normal", "partly subnormal", "zero"}


@pytest.mark.parametrize("m_scale", [0.05, 0.125, 0.5, 2.0])
def test_window_rows_left_out_are_exactly_one(m_scale):
    u, phi0, alpha_tilde = _raised_cosine_window()
    init = decay.InitLowpass(m_scale=m_scale, alpha_tilde=alpha_tilde, curvature_sup=0.0, phi_grid=u, phi_values=phi0)
    omegas = np.arange(0.0, 80.0, 0.25)
    near = decay._window_reaches(init, omegas)
    assert np.any(near) and not np.all(near)
    for w in omegas[~near]:
        assert 1.0 - decay._smoothed_window_sq(init, np.array([w]))[0] == 1.0


def reference_admissible_width(bank, init):
    """The width search smoothing every row of the band and taking the band's own octave sums."""
    lo, hi = bank.validated_band
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    envelope = (1.0 - decay._smoothed_window_sq(init, omegas)) * decay._lp_up_to_coarsest(bank, omegas)
    for m in range(64, -65, -1):
        x = 2.0 ** (m / 8.0)
        if np.all(envelope <= 1.0 - decay._chi_sq(omegas, x) + decay._X_TOL):
            return x, float(np.min(1.0 - decay._chi_sq(omegas, x) - envelope))
    raise BankConditionError("no admissible Gaussian width")


@pytest.mark.parametrize("case", sorted(PINNED_CONSTANTS))
def test_width_search_matches_all_rows_reference(case):
    (mother, n, *j_min), _, _ = PINNED_CONSTANTS[case]
    bank = build_bank(mother(), 0, n, *j_min)
    got = decay._admissible_width(bank)
    assert repr(got) == repr(reference_admissible_width(bank, initialize_lowpass(bank)))


def test_width_search_stops_at_the_highest_envelope_the_window_admits(shannon_bank, monkeypatch):
    # the window construction refuses |phi_hat|^2 + octave sums past 1 + _X_TOL, so an envelope
    # of exactly that float on every row of a band from w = 1 is the worst the search can meet
    init, lp_ints = decay._lowpass_and_integer_sums(shannon_bank)
    top = np.full(lp_ints.shape, 1.0 + decay._X_TOL)
    monkeypatch.setattr(decay, "_lowpass_and_integer_sums", lambda bank: (init, top))
    monkeypatch.setattr(decay, "_window_reaches", lambda init, omegas: np.zeros(omegas.shape, bool))
    x, margin = decay._admissible_width(replace(shannon_bank, validated_band=(1, 127)))
    # 1 - |chi_hat_x(1)|^2 rounds to 1.0 from x = 2^(-17/8) down
    assert x >= 2.0 ** (-17 / 8)
    # the least slack is 1.0 - (1.0 + _X_TOL): -_X_TOL, less that sum's rounding
    assert margin == 1.0 - (1.0 + decay._X_TOL)
    assert margin >= -decay._X_TOL - 2.0**-52


@pytest.mark.parametrize("make, most", [(morlet_mother, 8), (shannon_mother, 6)])
def test_width_search_smooths_few_rows(make, most, monkeypatch):
    # 29 (Morlet) and 27 (Shannon) of the band's rows reach exp's range; the rest cannot move 1.0 - v
    smooth = decay._smoothed_window_sq
    rows = []

    def counting(init, omegas):
        rows.append(omegas.size)
        return smooth(init, omegas)

    monkeypatch.setattr(decay, "_smoothed_window_sq", counting)
    compute_constants(build_bank(make(), 0, 256))
    assert 1 <= sum(rows) <= most


def test_constants_margins_are_recorded(shannon_constants):
    margins = shannon_constants.margins
    assert set(margins) == {
        "littlewood_paley",
        "vanishing_order_epsilon",
        "octave_gap",
        "x_condition",
    }
    assert margins["littlewood_paley"] >= -1e-9
    assert margins["octave_gap"] > 0.7
    assert margins["x_condition"] >= -1e-9


def test_constants_payload_keys(shannon_constants):
    payload = shannon_constants.to_payload()
    assert set(payload) == {"c", "C", "delta", "a", "x_init", "r", "validated_band", "margins"}
    assert payload["validated_band"] == [2, 127]


def test_constants_reject_even_profile():
    bank = build_bank(even_morlet_mother(), 0, 256)
    with pytest.raises(WeakAsymmetryError):
        compute_constants(bank)


def test_constants_reject_degenerate_octave():
    bank = build_bank(bandpass_mother(1.5 - 1e-9, 1.5), 0, 256)
    with pytest.raises(DegenerateOctaveError, match="degenerate octave"):
        compute_constants(bank)


def test_constants_reject_inflated_bank():
    bank = build_bank(bandpass_mother(1.0, 2.0, amplitude=1.1 * math.sqrt(2.0)), 0, 256)
    with pytest.raises(BankConditionError):
        compute_constants(bank)


def _lift_curvature_grid(sums):
    def lifted(bank):
        grid, lp = sums(bank)
        return grid, np.append(lp[:-1], 1.25)

    return lifted


def _lift_integers(sums):
    return lambda bank, omegas: np.append(sums(bank, omegas)[:-1], 1.25)


@pytest.mark.parametrize(
    "name, lift",
    [("_curvature_sums", _lift_curvature_grid), ("_lp_up_to_coarsest", _lift_integers)],
    ids=["curvature-grid", "integers"],
)
def test_window_refuses_one_point_over_the_combined_bound(name, lift, monkeypatch):
    # |phi_hat|^2 + octave sums <= 1 is checked on both grids: one grid's sums, lifted
    # to 1.25 at their last point N/2, where the window is 0, are refused
    bank = build_bank(morlet_mother(), 0, 256)
    monkeypatch.setattr(decay, name, lift(getattr(decay, name)))
    with pytest.raises(BankConditionError, match=r"^initial window violates the combined bound: max 1\.250000000000$"):
        initialize_lowpass(bank)


def test_constants_reject_first_order_profile():
    bank = build_bank(morlet_first_order_mother(), 0, 256)
    with pytest.raises(VanishingOrderError):
        compute_constants(bank)


def test_constants_require_coverage():
    stranded = build_bank(morlet_mother(), 6, 64, j_min=5)
    with pytest.raises(CoverageHoleError):
        compute_constants(stranded)


def _scanned_banks(count, seed):
    """Seeded recipes on N=8..2048, J=-4..3, and the banks they build.

    The mothers are Morlet, first-order Morlet, Shannon and bandpass.  Morlet widths reach
    down to 0.03, where the profiles underflow to 0.0 near zero, and bandpass bands down to
    10^-2.5.
    """
    rng = np.random.default_rng(seed)
    banks = []
    for _ in range(count):
        kind = ("morlet", "morlet_first_order", "shannon", "bandpass")[rng.integers(4)]
        if kind.startswith("morlet"):
            params = {"center": rng.uniform(2.0, 4.0), "width": 10.0 ** rng.uniform(-1.52, 0.18)}
        elif kind == "shannon":
            params = {}
        else:
            lo = 10.0 ** rng.uniform(-2.5, 0.6)
            params = {"lo": lo, "hi": lo * (1.0 + 10.0 ** rng.uniform(-5.0, 0.5))}
            if rng.random() < 0.3:
                params["amplitude"] = 10.0 ** rng.uniform(-6.0, 0.15)
        n = 2 ** int(rng.integers(3, 12))
        j_max = int(rng.integers(-4, 4))
        j_min = None if rng.random() < 0.5 else j_max - int(rng.integers(0, n.bit_length()))
        try:
            mother = filterbank.make_mother(kind, **params)
            banks.append(build_bank(mother, j_max, n, j_min=j_min))
        except ValueError:  # a bump past the window, hi <= lo and the like: no bank to scan
            pass
    return banks


# the order each scanned family's closed form gives
_SCAN_ORDERS = {"morlet": 2.0, "morlet_first_order": 1.0, "shannon": math.inf, "bandpass": math.inf}


def test_bank_scan_decides_holes_once():
    # bank check and the constants decide alike: on every bank the scan builds, nothing but a
    # ScatdecayError leaves compute_constants, a bank that fails bank check (a check or no band)
    # gets no constants, and one that passes gets them, or is refused only by what the
    # window construction alone checks; no band frequency is a hole; and the order verdict is
    # the one each family's closed form gives, so no first-order Morlet gets constants
    banks = _scanned_banks(320, 31)
    assert len(banks) >= 300
    window_only = ("initial window violates the combined bound", "no octave mass for j <= ")
    certified = 0
    for bank in banks:
        reports = [check_littlewood_paley(bank), check_asymmetry(bank), estimate_vanishing_order(bank.mother)]
        assert bank.mother.order == _SCAN_ORDERS[bank.mother.name], bank
        assert reports[2].passed == (bank.mother.name != "morlet_first_order"), bank
        passes = bank.validated_band is not None and all(r.passed for r in reports)
        if bank.validated_band is not None:
            assert np.all(compute_S(bank).values > filterbank._MASS_FLOOR), bank
        try:
            compute_constants(bank)
        except ScatdecayError as exc:
            assert not passes or str(exc).startswith(window_only), (bank, exc)
        else:
            assert passes and bank.mother.name != "morlet_first_order", bank
            certified += 1
    assert certified >= 150


# --- lemma checks -------------------------------------------------------------


def test_lemma1_random_cases_never_negative(shannon_bank):
    rng = np.random.default_rng(101)
    worst = math.inf
    for _ in range(200):
        f = band_limited_signal(256, (2, 127), rng)
        j = int(rng.integers(-6, 1))
        x = float(2.0 ** rng.uniform(-1.0, 4.0))
        delta = float(rng.uniform(-8.0, 8.0))
        report = lemma1_check(f, j, x, delta, shannon_bank)
        assert report.passed
        worst = min(worst, report.margin / energy(f))
    assert worst >= -1e-10


def test_lemma1_tone_equality_at_matched_center(shannon_bank):
    # the modulus of a filtered tone is flat, so smoothing keeps all of
    # it; the floor matches exactly when centered on the tone
    tone = complex_tone(256, 5)
    exact = lemma1_check(tone, -2, 2.0, 5.0, shannon_bank)
    assert exact.margin == pytest.approx(0.0, abs=1e-12)
    off = lemma1_check(tone, -2, 2.0, 3.0, shannon_bank)
    assert off.margin > 0.1


# lemma1_check's sides and margin at N=256, pinned by repr: (octave, x,
# delta) -> (lhs, rhs, margin) on band_limited_signal(seed 17) over the
# bank's validated band, one table per NumPy kernel family
SHANNON_LEMMA1 = {
    (-2, 2.0, 0.5): ("7.082274408158142", "0.0001434249479033249", "7.082130983210239"),
    (-2, 5.0, -3.0): ("7.6605212893024195", "0.026867976044616278", "7.6336533132578035"),
    (-4, 2.0, 0.5): ("35.56998267657495", "5.4905493087465655e-59", "35.56998267657495"),
    (-4, 5.0, -3.0): ("37.10681093491006", "9.235580067060787e-14", "37.106810934909966"),
}
PINNED_LEMMA1 = {
    "shannon": (shannon_mother, {"avx512": SHANNON_LEMMA1, "avx2": SHANNON_LEMMA1}),
    "morlet": (morlet_mother, {
        "avx512": {
            (-1, 2.0, 0.5): ("3.3324114533379214", "0.002712758840384856", "3.3296986944975364"),
            (-1, 5.0, -3.0): ("3.5693148121779084", "0.009816600783293227", "3.559498211394615"),
            (-3, 2.0, 0.5): ("14.430276549878672", "2.896362558157071e-06", "14.430273653516114"),
            (-3, 5.0, -3.0): ("14.905503199059032", "0.0002710069558087639", "14.905232192103224"),
        },
        "avx2": {
            (-1, 2.0, 0.5): ("3.3324114533379223", "0.0027127588403848563", "3.3296986944975373"),
            (-1, 5.0, -3.0): ("3.5693148121779097", "0.009816600783293229", "3.5594982113946165"),
            (-3, 2.0, 0.5): ("14.430276549878672", "2.8963625581570715e-06", "14.430273653516114"),
            (-3, 5.0, -3.0): ("14.905503199059032", "0.0002710069558087639", "14.905232192103224"),
        },
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED_LEMMA1))
def test_lemma1_bits_are_pinned(case, kernel_family):
    make, tables = PINNED_LEMMA1[case]
    expected = tables[kernel_family]
    bank = build_bank(make(), 0, 256)
    f = band_limited_signal(256, bank.validated_band, np.random.default_rng(17))
    got = {}
    for j, x, delta in expected:
        report = lemma1_check(f, j, x, delta, bank)
        got[(j, x, delta)] = (repr(report.lhs), repr(report.rhs), repr(report.margin))
    assert got == expected


def test_lemma1_input_validation(shannon_bank):
    tone = complex_tone(256, 5)
    with pytest.raises(ValueError):
        lemma1_check(tone, 3, 2.0, 0.0, shannon_bank)
    with pytest.raises(ValueError):
        lemma1_check(tone, -2, -1.0, 0.0, shannon_bank)
    with pytest.raises(ValueError):
        lemma1_check(complex_tone(128, 5), -2, 2.0, 0.0, shannon_bank)


def test_lemma2_passes_at_certified_widths(shannon_constants, morlet_constants,
                                           shannon_bank, morlet_bank):
    for bank, cst in [(shannon_bank, shannon_constants), (morlet_bank, morlet_constants)]:
        for n in range(2, 6):
            report = lemma2_envelope_check(bank, cst, cst.r * cst.a**n)
            assert report.passed, (bank.mother.name, n, report.margin)


def test_lemma2_morlet_margins_shrink_with_depth(morlet_bank, morlet_constants):
    cst = morlet_constants
    margins = [
        lemma2_envelope_check(morlet_bank, cst, cst.r * cst.a**n).margin
        for n in range(2, 6)
    ]
    assert margins == pytest.approx([0.200405, 0.086588, 0.035076, 0.013855], abs=1e-5)
    assert all(a > b for a, b in zip(margins, margins[1:]))


def test_lemma2_shannon_is_the_boundary_case(shannon_bank, shannon_constants):
    cst = shannon_constants
    report = lemma2_envelope_check(shannon_bank, cst, cst.r * cst.a**2)
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_lemma2_rejects_overclaimed_contraction(shannon_bank, shannon_constants):
    # claiming 1.5x the certified contraction is refuted with a witness
    cst = shannon_constants
    report = lemma2_envelope_check(
        shannon_bank, cst, cst.r * cst.a**2, a=1.5 * cst.a
    )
    assert not report.passed
    assert report.margin == pytest.approx(-0.1102, abs=1e-3)
    assert report.witness_freq == 2.0


def test_lemma2_input_validation(shannon_bank, shannon_constants):
    with pytest.raises(ValueError):
        lemma2_envelope_check(shannon_bank, shannon_constants, -1.0)
    with pytest.raises(ValueError):
        lemma2_envelope_check(shannon_bank, shannon_constants, 2.0, a=0.0)


# --- end-to-end bound ----------------------------------------------------------


def test_decay_rows_bound_holds(shannon_bank, shannon_constants):
    rng = np.random.default_rng(7)
    f = band_limited_signal(256, (2, 127), rng)
    rows = verify_decay(f, shannon_bank, shannon_constants, 4)
    assert [row.n for row in rows] == [2, 3, 4]
    for row in rows:
        assert row.slack >= 0.0
        assert row.bound == pytest.approx(row.empirical + row.slack)
    emp = [row.empirical for row in rows]
    bnd = [row.bound for row in rows]
    assert all(a >= b for a, b in zip(emp, emp[1:]))
    assert all(a >= b for a, b in zip(bnd, bnd[1:]))


def test_decay_bound_closed_form_for_cosine(shannon_bank, shannon_constants):
    # |f_hat|^2 puts 1/4 at +/- 5, so the bound is (1 - exp(-2 (5/w_n)^2))/2
    cst = shannon_constants
    rows = verify_decay(cosine(256, 5), shannon_bank, cst, 3)
    for row in rows:
        w_n = cst.r * cst.a**row.n
        want = 0.5 * (1.0 - math.exp(-2.0 * (5.0 / w_n) ** 2))
        assert row.bound == pytest.approx(want, rel=1e-12)


def test_decay_verification_morlet(morlet_bank, morlet_constants):
    rng = np.random.default_rng(23)
    f = band_limited_signal(256, (3, 127), rng)
    for row in verify_decay(f, morlet_bank, morlet_constants, 3):
        assert row.slack >= 0.0


@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_decay_bound_says_more_than_parseval_on_small_banks(make):
    # N=16 keeps 5 band frequencies on Morlet (3..7) and 6 on Shannon (2..7), so depth 10 takes a
    # fraction of a second.  Parseval through each modulus gives E_n <= Lambda^n ||f||^2 for the
    # bank's Littlewood-Paley level Lambda; at these depths the certified bound is below it
    bank = build_bank(make(), 0, 16)
    constants = compute_constants(bank)
    # what a real row's half spectrum passes to its children per unit of its own energy: bins 0
    # and N/2 weigh only themselves, every other bin also its mirror, which holds the same energy
    level = scattering._folded(np.sum(np.abs(scattering._filter_rows(bank)) ** 2, axis=0))
    level[1:-1] /= 2
    lam = float(np.max(level))
    for seed in range(5):
        f = band_limited_signal(16, constants.band, np.random.default_rng(seed))
        total = energy(f)
        rows = verify_decay(f, bank, constants, n_max=10)
        assert [row.n for row in rows] == list(range(2, 11))
        empirical = {1: scattering.layer_energy_profile(f, bank, 1)[1], **{row.n: row.empirical for row in rows}}
        for n, e_n in empirical.items():
            # E_1 and ||f||^2 are separate float sums, a few ulps apart where Lambda = 1
            assert e_n <= lam**n * total * (1 + 1e-12), (seed, n)
        for row in rows:
            assert row.slack >= -decay._SLACK_TOL * total, (seed, row)
        bound = {row.n: row.bound for row in rows}
        if make is morlet_mother:  # Lambda = 0.5468
            assert bound[9] < lam**9 * total and bound[10] < lam**10 * total, seed
        else:  # Lambda = 1, so Parseval says only E_n <= ||f||^2
            assert bound[10] <= 0.98 * total, seed


def test_decay_rejects_bad_inputs(shannon_bank, shannon_constants):
    rng = np.random.default_rng(5)
    good = band_limited_signal(256, (2, 127), rng)
    with pytest.raises(ValueError):
        verify_decay(good, shannon_bank, shannon_constants, 1)
    with pytest.raises(BudgetExceededError):  # layer 7 holds 256 * 8^7 complex values, ~8.6 GB
        verify_decay(good, shannon_bank, shannon_constants, 8)
    with pytest.raises(ValueError):
        verify_decay(complex_tone(256, 5), shannon_bank, shannon_constants, 3)
    with pytest.raises(ValueError):
        verify_decay(Signal(np.zeros(256), real=True), shannon_bank, shannon_constants, 3)
    outside = cosine(256, 1)  # below the validated band
    with pytest.raises(ValueError):
        verify_decay(outside, shannon_bank, shannon_constants, 3)
