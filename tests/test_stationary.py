import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from scatdecay import filterbank, scattering, stationary
from scatdecay.decay import compute_constants
from scatdecay.errors import BudgetExceededError
from scatdecay.filterbank import build_bank, morlet_mother, shannon_mother
from scatdecay.scattering import gaussian_output_lowpass, layer_energy_profile, scatter
from scatdecay.signals import Signal, Spectrum, dft, frequencies, gaussian_lowpass
from scatdecay.stationary import (
    expected_filter_energy,
    filter_spectrum,
    load_model,
    make_model,
    mc_layer_energy,
    save_model,
    simulate,
    stationary_bound,
)


# --- model construction ------------------------------------------------------


def test_white_density_is_flat():
    model = make_model("white", 64, sigma=1.5)
    assert np.all(model.density == 2.25)
    # per-sample variance is the density total
    assert model.autocov[0] == pytest.approx(64 * 2.25, rel=1e-12)
    assert np.max(np.abs(model.autocov[1:])) < 1e-10


def test_ar1_autocovariance_matches_formula():
    n, sigma, rho = 64, 1.0, 0.6
    model = make_model("ar1", n, sigma=sigma, rho=rho)
    k = np.arange(n)
    want = sigma**2 * (rho**k + rho ** (n - k)) / (1.0 + rho**n)
    assert np.max(np.abs(model.autocov - want)) < 1e-12
    assert np.min(model.density) > 0.0
    # density peaks at zero frequency for positive correlation
    w = frequencies(n)
    assert np.argmax(model.density) == int(np.flatnonzero(w == 0)[0])


def test_ar1_density_bits_are_pinned(kernel_family):
    density = make_model("ar1", 128, rho=0.6, sigma=0.8).density
    assert density.dtype == np.float64 and density.shape == (128,)
    assert hashlib.sha256(density.tobytes()).hexdigest() == {
        "avx512": "c375c49db12db5817d320661cd9cbc9ad4b4113af1ce6009797c7995e47a01aa",
        "avx2": "380eff566bb04cbadd39cb7bcfa107857a8c3f027c3037b5101d804ee975ec24",
    }[kernel_family]


def test_ar1_zero_correlation_has_unit_sample_variance():
    model = make_model("ar1", 32, sigma=1.0, rho=0.0)
    assert model.autocov[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.abs(model.density - 1.0 / 32) < 1e-15)


def test_filtered_noise_density():
    model = make_model(
        "filtered_noise", 64, sigma=2.0, filter={"name": "gaussian_lowpass", "a": 4.0}
    )
    w = frequencies(64)
    want = 4.0 * np.exp(-2.0 * (w / 4.0) ** 2)
    assert np.max(np.abs(model.density - want)) < 1e-12


def test_band_filter_spectrum():
    h = filter_spectrum("band", 32, lo=3, hi=6)
    w = np.abs(frequencies(32))
    assert np.array_equal(h.coeffs.real, ((w >= 3) & (w <= 6)).astype(float))


def test_model_validation():
    with pytest.raises(ValueError):
        make_model("pink", 64)
    with pytest.raises(ValueError):
        make_model("ar1", 64, rho=1.0)
    with pytest.raises(ValueError):
        make_model("white", 64, sigma=-1.0)
    with pytest.raises(ValueError):
        make_model("filtered_noise", 64, filter={"name": "comb"})
    with pytest.raises(ValueError):
        make_model("filtered_noise", 64)


@pytest.mark.parametrize(
    "kind, n, params, message",
    [
        ("white", 100, {}, "sample count must be a power of two >= 2, got 100"),
        ("white", 1, {}, "sample count must be a power of two >= 2, got 1"),
        ("white", 64, {"sigma": math.inf}, "values must be finite"),
        ("white", 64, {"sigma": math.nan}, "values must be finite"),
        ("filtered_noise", 64, {"sigma": math.nan, "filter": {"name": "gaussian_lowpass", "a": 4.0}},
         "values must be finite"),
        # sigma^2 overflows (1e200), or the density is finite and its sum is not (1e154)
        ("white", 64, {"sigma": 1e200}, "values must be finite"),
        ("white", 64, {"sigma": 1e154}, "values must be finite"),
        ("ar1", 64, {"sigma": 1e200, "rho": 0.5}, "values must be finite"),
        ("ar1", 64, {"sigma": 1e154, "rho": 0.5}, "values must be finite"),
        ("filtered_noise", 64, {"sigma": 1e200, "filter": {"name": "gaussian_lowpass", "a": 4.0}},
         "values must be finite"),
        ("filtered_noise", 64, {"sigma": 1e154, "filter": {"name": "gaussian_lowpass", "a": 4.0}},
         "values must be finite"),
        # a positive sigma whose square underflows was once a zero or subnormal model, and passed
        *((kind, 64, {"sigma": sigma, **extra}, f"sigma {sigma:g} is positive, but its square is below "
           "float64's smallest normal number")
          for sigma in (1e-170, 1e-160)
          for kind, extra in (("white", {}), ("ar1", {"rho": 0.5}),
                              ("filtered_noise", {"filter": {"name": "gaussian_lowpass", "a": 4.0}}))),
        # a non-finite mean once ran and wrote a NaN estimate
        ("white", 64, {"mean": math.nan}, "values must be finite"),
        ("ar1", 64, {"mean": math.inf, "rho": 0.5}, "values must be finite"),
        ("filtered_noise", 64, {"mean": -math.inf, "filter": {"name": "gaussian_lowpass", "a": 4.0}},
         "values must be finite"),
    ],
    ids=["length-100", "length-1", "sigma-inf", "sigma-nan", "filtered-sigma-nan",
         "white-sigma-1e200", "white-sigma-1e154", "ar1-sigma-1e200", "ar1-sigma-1e154",
         "filtered-sigma-1e200", "filtered-sigma-1e154",
         *(f"{kind}-sigma-{sigma}" for sigma in ("1e-170", "1e-160") for kind in ("white", "ar1", "filtered")),
         "white-mean-nan", "ar1-mean-inf",
         "filtered-mean--inf"],
)
def test_model_refuses_a_bad_grid_or_non_finite_density(kind, n, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_model(kind, n, **params)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("white", {"mean": 1e20}),
        ("ar1", {"mean": -1e20, "rho": 0.5}),
        ("filtered_noise", {"mean": 1e20, "filter": {"name": "gaussian_lowpass", "a": 4.0}}),
    ],
)
def test_model_refuses_a_mean_that_swamps_the_fluctuation(kind, params):
    # a Shannon bank once scored mean 1e20 as estimate=0 and [OK]: mean + x rounded x away
    std = math.sqrt(make_model(kind, 64, **{**params, "mean": 0.0}).autocov[0])
    message = (f"mean {params['mean']:g} is more than 2^27 times the standard deviation {std:g}: "
               "float64 cannot hold the fluctuation beside it")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_model(kind, 64, **params)


def test_mean_bound_is_2_27_standard_deviations():
    bound = 2.0**27 * math.sqrt(make_model("white", 64).autocov[0])
    assert make_model("white", 64, mean=-bound).mean == -bound
    with pytest.raises(ValueError, match="^mean .* is more than 2\\^27 times"):
        make_model("white", 64, mean=np.nextafter(bound, math.inf))


def test_model_round_trip(tmp_path):
    model = make_model("ar1", 128, sigma=0.5, rho=0.3, mean=1.0)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.kind == "ar1" and loaded.n == 128 and loaded.mean == 1.0
    assert np.array_equal(loaded.density, model.density)
    payload = json.loads(path.read_text())
    assert set(payload) == {"kind", "params", "N"}


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("filt, key", [({"name": "gaussian_lowpass", "a": math.inf}, "a"),
                                       ({"name": "gaussian_lowpass", "a": np.float64(math.inf)}, "a"),
                                       ({"name": "band", "lo": 2, "hi": math.inf}, "hi")],
                         ids=["a", "a-numpy", "hi"])
def test_model_with_an_infinite_filter_parameter_saves_strict_json(filt, key, tmp_path):
    # make_model takes these, and save_model once wrote them with the token Infinity, which JSON does not have
    model = make_model("filtered_noise", 64, filter=filt)
    path = tmp_path / "model.json"
    save_model(path, model)
    assert _strict_json(path.read_text())["params"]["filter"] == {**filt, key: "inf"}
    assert load_model(path).density.tobytes() == model.density.tobytes()


# --- simulation ---------------------------------------------------------------


def test_simulation_is_reproducible_and_trialwise_stable():
    model = make_model("white", 64)
    a = simulate(model, 3, seed=42)
    b = simulate(model, 3, seed=42)
    c = simulate(model, 5, seed=42)
    for k in range(3):
        assert np.array_equal(a[k].samples, b[k].samples)
        assert np.array_equal(a[k].samples, c[k].samples)
    other = simulate(model, 1, seed=43)
    assert not np.array_equal(a[0].samples, other[0].samples)


def test_simulated_bin_variance_matches_density():
    n, trials = 128, 400
    model = make_model("white", n, sigma=1.0)
    spectra = np.stack([np.abs(dft(sig).coeffs) ** 2 for sig in simulate(model, trials, 0)])
    bin_var = spectra.mean(axis=0)
    # every bin has expectation 1; averaging over bins tightens the noise
    assert float(bin_var.mean()) == pytest.approx(1.0, abs=0.02)
    assert float(np.max(np.abs(bin_var - 1.0))) < 0.35


def test_simulated_sample_variance_is_density_total():
    n, trials = 128, 400
    model = make_model("white", n, sigma=1.0)
    values = np.concatenate([sig.samples.real for sig in simulate(model, trials, 1)])
    assert float(np.var(values)) == pytest.approx(n, rel=0.05)


def test_simulated_mean_is_respected():
    model = make_model("white", 64, sigma=0.1, mean=3.0)
    sims = simulate(model, 50, seed=2)
    grand = np.mean([np.mean(s.samples.real) for s in sims])
    assert grand == pytest.approx(3.0, abs=0.2)


def test_zero_variance_model_is_deterministic():
    model = make_model("white", 32, sigma=0.0, mean=2.0)
    (sig,) = simulate(model, 1, seed=9)
    assert np.max(np.abs(sig.samples - 2.0)) < 1e-12


def test_simulated_trials_do_not_depend_on_the_block():
    model = make_model("ar1", 64, sigma=1.0, rho=0.3, mean=0.5)
    block = scattering._BLOCK_ELEMENTS // 64  # trials per layer-1 block
    short = simulate(model, block - 1, seed=8)
    long = simulate(model, block + 1, seed=8)
    for i in (0, block // 2, block - 2):
        assert np.array_equal(short[i].samples, long[i].samples)


def test_simulate_needs_positive_trials():
    with pytest.raises(ValueError):
        simulate(make_model("white", 32), 0, seed=0)


def _no_draws(*args, **kwargs):
    raise AssertionError("trials were drawn before the request was refused")


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 2.5, "3", None, True, [1, 2]])
def test_bad_seed_refused_before_drawing(seed, monkeypatch):
    model = make_model("white", 64)
    bank = build_bank(morlet_mother(), 0, 64)
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    for run in (lambda: simulate(model, 3, seed), lambda: mc_layer_energy(model, bank, 2, 3, seed)):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            run()


def test_simulate_budget_counts_its_peak(monkeypatch):
    model = make_model("white", 64)
    # five trials' rows while building and objects, then the call's root rows and casting buffers
    nbytes = (40 * 64 + 512) * 5 + 16 * 64 + 2**18
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes)
    assert len(simulate(model, 5, seed=0)) == 5
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes - 1)
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(BudgetExceededError) as info:
        simulate(model, 5, seed=0)
    assert info.value.estimated_bytes == nbytes


def test_simulate_refuses_a_billion_trials_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(BudgetExceededError) as info:
        simulate(make_model("white", 128), 10**9, seed=0)
    assert info.value.estimated_bytes == (40 * 128 + 512) * 10**9 + 16 * 128 + 2**18


# --- exact filter energies ------------------------------------------------------


def test_expected_energy_single_bin_indicator():
    model = make_model("white", 64, sigma=1.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[40] = 1.0  # one frequency bin
    assert expected_filter_energy(model, Spectrum(coeffs)) == pytest.approx(1.0)


def test_expected_energy_pure_mean():
    model = make_model("white", 64, sigma=0.0, mean=2.0)
    h = gaussian_lowpass(4.0, 64)  # h_hat(0) = 1
    assert expected_filter_energy(model, h) == pytest.approx(4.0, abs=1e-14)


def test_expected_energy_matches_monte_carlo():
    model = make_model("ar1", 64, sigma=1.0, rho=0.5)
    h = gaussian_lowpass(6.0, 64)
    want = expected_filter_energy(model, h)
    got = []
    for sig in simulate(model, 600, seed=5):
        coeffs = dft(sig).coeffs * h.coeffs
        got.append(float(np.sum(np.abs(coeffs) ** 2)))
    stderr = float(np.std(got, ddof=1) / math.sqrt(len(got)))
    assert abs(float(np.mean(got)) - want) < 3.0 * stderr


def test_expected_energy_length_mismatch():
    with pytest.raises(ValueError):
        expected_filter_energy(make_model("white", 64), gaussian_lowpass(2.0, 32))


# --- layer energies and the bound ------------------------------------------------


@pytest.fixture(scope="module")
def shannon_128():
    bank = build_bank(shannon_mother(), 0, 128)
    return bank, compute_constants(bank)


def test_layer_one_matches_analytic_value(shannon_128):
    bank, _ = shannon_128
    model = make_model("white", 128, sigma=1.0)
    est = mc_layer_energy(model, bank, 1, trials=300, seed=11)
    # modulus preserves energy, so layer 1 is a sum of exact identities
    want = sum(expected_filter_energy(model, bank.filters[j]) for j in bank.scales)
    assert abs(est.estimate - want) < 3.0 * est.stderr
    assert est.stderr < 0.05 * want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mc_matches_per_trial_scatter(n, monkeypatch):
    bank = build_bank(morlet_mother(), 0, 64)
    model = make_model("ar1", 64, sigma=1.0, rho=0.4, mean=0.3)
    low = gaussian_output_lowpass(0, 64)
    ref = [scatter(sig, bank, low, n).layer_energies[n] for sig in simulate(model, 10, 17)]
    per_trial = len(bank.filters) ** (n - 1) * 64  # layer n-1 values
    # blocks of 1, 3 and 4 trials, the last two ending on a partial block: a block drawn
    # twice, or from a restarted stream, takes other rows than simulate's trials
    for block in (1, 3, 4):
        monkeypatch.setattr(scattering, "_BLOCK_ELEMENTS", block * per_trial)
        est = mc_layer_energy(model, bank, n, trials=10, seed=17)
        assert est.estimate == pytest.approx(np.mean(ref), rel=1e-13)
        assert est.stderr == pytest.approx(np.std(ref, ddof=1) / math.sqrt(10), rel=1e-13)


def test_consecutive_mc_calls_match_fresh_rows(monkeypatch):
    """Depth 2 then depth 3 in one process, each on uneven blocks, bitwise.

    The reference scores every trial as a one-row batch on its own fresh
    layer buffers, so buffers kept between blocks, shapes or calls would show.
    """
    bank = build_bank(morlet_mother(), 0, 64)
    model = make_model("ar1", 64, sigma=1.0, rho=0.4, mean=0.3)
    breadth = len(bank.filters)
    # depth 2: blocks of 4, 4 and 2 trials; depth 3: one trial per block
    monkeypatch.setattr(scattering, "_BLOCK_ELEMENTS", 4 * breadth * 64)
    spectra = stationary._spectrum_rows(model, np.random.default_rng(17).standard_normal((10, 64)))
    for n in (2, 3, 2):
        est = mc_layer_energy(model, bank, n, trials=10, seed=17)
        ref = np.array([
            scattering._block_profiles(bank, n, 1, lambda i, k: spec[None, :])[n, 0]
            for spec in spectra
        ])
        assert repr(est.estimate) == repr(float(np.mean(ref)))
        assert repr(est.stderr) == repr(float(np.std(ref, ddof=1) / math.sqrt(10)))


def test_mc_weighs_only_the_layer_it_estimates(monkeypatch):
    """At depth 3 only layer 2's rows are weighed, layer 1's are formed but not."""
    bank = build_bank(morlet_mother(), 0, 64)  # 6 octaves
    model = make_model("white", 64)
    monkeypatch.setattr(scattering, "_BLOCK_ELEMENTS", 4 * 6**2 * 64)  # blocks of 4, 4 and 2 trials
    weighed, child_energies = [], scattering._child_energies

    def counted(rows, *args):
        weighed.append(len(rows))
        return child_energies(rows, *args)

    monkeypatch.setattr(scattering, "_child_energies", counted)
    mc_layer_energy(model, bank, 3, trials=10, seed=0)
    assert sum(weighed) == 10 * 6**2
    weighed.clear()
    layer_energy_profile(Signal(np.ones(64), real=True), bank, 3)
    assert sum(weighed) == 6 + 6**2  # the profile weighs every layer


def test_mc_estimate_is_reproducible(shannon_128):
    bank, _ = shannon_128
    model = make_model("white", 128)
    a = mc_layer_energy(model, bank, 2, trials=50, seed=3)
    b = mc_layer_energy(model, bank, 2, trials=50, seed=3)
    assert a == b


@pytest.mark.parametrize("power", [240, 256, 480])
def test_mc_estimate_scales_exactly_with_a_power_of_two_sigma(power, shannon_128):
    # from sigma 2^256 on, np.std's squared deviations once overflowed to "stderr": "inf"
    bank, _ = shannon_128
    base, scaled = (mc_layer_energy(make_model("white", 128, sigma=sigma), bank, 2, trials=100, seed=0)
                    for sigma in (1.0, 2.0**power))
    assert (scaled.estimate, scaled.stderr) == (base.estimate * 4.0**power, base.stderr * 4.0**power)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_mc_estimate_scales_exactly_with_a_small_power_of_two_sigma(make, n):
    # at sigma 2^-340, np.std's squared deviations once underflowed to "stderr": 0.0
    bank = build_bank(make(), 0, 128)
    base, scaled = (mc_layer_energy(make_model("white", 128, sigma=sigma), bank, n, trials=100, seed=1)
                    for sigma in (1.0, 2.0**-340))
    assert base.stderr > 0.0
    assert (scaled.estimate, scaled.stderr) == (base.estimate * 2.0**-680, base.stderr * 2.0**-680)


# Exact Monte Carlo results at N=128 (7 octaves): depth 2 scores 292 trials
# per block and depth 3 scores 41, so each case spans three or more blocks.
# A change to how trials are scored must keep these bits, one (estimate,
# stderr) pair per NumPy kernel family; trial k is row k of default_rng(seed).
PINNED_MC = {
    "shannon-white-d2": (
        shannon_mother, ("white", {"sigma": 1.0}), 2, 600, 5, {
            "avx512": ("20.527308836949878", "0.15258140987569213"),
            "avx2": ("20.527308836949878", "0.15258140987569213"),
        },
    ),
    "morlet-filtered_noise-d3": (
        morlet_mother,
        ("filtered_noise", {"sigma": 1.0, "filter": {"name": "gaussian_lowpass", "a": 16.0}}),
        3, 200, 6, {
            "avx512": ("0.005392686856112281", "0.0001388950782309532"),
            "avx2": ("0.0053926868561122825", "0.00013889507823095323"),
        },
    ),
    "morlet-ar1-mean-d2": (
        morlet_mother, ("ar1", {"sigma": 1.0, "rho": 0.5, "mean": 0.7}), 2, 600, 7, {
            "avx512": ("0.024689153623158298", "0.0001962111130296914"),
            "avx2": ("0.0246891536231583", "0.0001962111130296914"),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_MC))
def test_mc_estimate_bits_are_pinned(case, kernel_family):
    mother, (kind, params), n, trials, seed, pins = PINNED_MC[case]
    bank = build_bank(mother(), 0, 128)
    est = mc_layer_energy(make_model(kind, 128, **params), bank, n, trials, seed)
    # repr round-trips a float exactly, so equal reprs mean equal bits
    assert (repr(est.estimate), repr(est.stderr)) == pins[kernel_family]


def per_trial_rows(model, trials, seed):
    """Trial signals drawn from one shared generator, one call at a time, in raw numpy.

    Per trial, in turn: a (2, N/2-1) standard normal draw for the real and
    imaginary parts of the positive bins, then one scalar for w = 0 and one
    for -N/2.
    """
    n, half = model.n, model.n // 2
    root = np.sqrt(model.density)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        draw = rng.standard_normal((2, half - 1))
        coeffs = np.zeros(n, dtype=np.complex128)
        coeffs[half + 1 :] = root[half + 1 :] * (draw[0] + 1j * draw[1]) / math.sqrt(2.0)
        coeffs[half] = root[half] * rng.standard_normal()
        coeffs[0] = root[0] * rng.standard_normal()
        coeffs[1:half] = np.conj(coeffs[half + 1 :])[::-1]
        rows.append((np.fft.ifft(np.fft.ifftshift(coeffs)) * n).real + model.mean)
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 4, 64, 128])
def test_simulated_rows_match_per_trial_draws(n):
    for model in (
        make_model("ar1", n, sigma=1.3, rho=0.4, mean=-0.6),
        make_model("filtered_noise", n, filter={"name": "gaussian_lowpass", "a": 2.0}),
    ):
        got = np.array([sig.samples.real for sig in simulate(model, 9, seed=23)])
        assert got.tobytes() == per_trial_rows(model, 9, 23).tobytes()


def test_bound_dominates_white_noise_layers(shannon_128):
    bank, constants = shannon_128
    model = make_model("white", 128, sigma=1.0)
    for n in (2, 3):
        est = mc_layer_energy(model, bank, n, trials=250, seed=n)
        bound = stationary_bound(model, constants, n)
        assert est.estimate <= bound + 3.0 * est.stderr


def test_bound_closed_form_for_white():
    bank = build_bank(shannon_mother(), 0, 128)
    constants = compute_constants(bank)
    model = make_model("white", 128, sigma=2.0)
    width = constants.r * constants.a**2
    w = frequencies(128)
    want = float(np.sum(4.0 * (1.0 - np.exp(-2.0 * (w / width) ** 2))))
    assert stationary_bound(model, constants, 2) == pytest.approx(want, rel=1e-14)


def test_large_mean_leaves_the_estimate(shannon_128):
    # mean 1e9 is 8.8e7 standard deviations, inside the bound; the bank has no mass at w=0
    bank, _ = shannon_128
    estimates = [mc_layer_energy(make_model("white", 128, sigma=1.0, mean=mean), bank, 2,
                                 trials=200, seed=0).estimate for mean in (0.0, 1e9)]
    assert abs(estimates[1] - estimates[0]) <= 1e-9 * estimates[0]


def test_bound_ignores_the_mean(shannon_128):
    bank, constants = shannon_128
    flat = make_model("white", 128, sigma=1.0, mean=0.0)
    lifted = make_model("white", 128, sigma=1.0, mean=5.0)
    assert stationary_bound(flat, constants, 2) == stationary_bound(lifted, constants, 2)


def test_mc_layer_guards(shannon_128):
    bank, _ = shannon_128
    model = make_model("white", 128)
    with pytest.raises(ValueError):
        mc_layer_energy(model, bank, 0, trials=10, seed=0)
    with pytest.raises(ValueError):
        mc_layer_energy(model, bank, 2, trials=1, seed=0)
    with pytest.raises(ValueError):
        mc_layer_energy(make_model("white", 64), bank, 2, trials=10, seed=0)
    with pytest.raises(ValueError):
        stationary_bound(model, compute_constants(bank), 1)
    # one trial's layer 8 holds 128 * 7^8 complex values, ~11.8 GB
    with pytest.raises(BudgetExceededError) as info:
        mc_layer_energy(model, bank, 9, trials=10, seed=0)
    assert info.value.estimated_bytes == 16 * 128 * 7**8 + 8 * 10


def test_mc_trials_are_bounded_by_the_budget(shannon_128):
    bank, _ = shannon_128
    with pytest.raises(BudgetExceededError) as info:
        mc_layer_energy(make_model("white", 128), bank, 2, trials=10**9, seed=0)
    assert info.value.estimated_bytes == 16 * 128 * 7 + 8 * 10**9


def test_bank_and_model_budget_count_their_own_arrays(monkeypatch):
    # a 6-octave bank on N=64 keeps 16 * 64 * 6 bytes of filters; a model on N=64 peaks under
    # 80 * 64 bytes of arrays and 16 KiB of objects while it is built
    for nbytes, build in [(16 * 64 * 6, lambda: build_bank(morlet_mother(), 0, 64)),
                          (80 * 64 + 2**14, lambda: make_model("white", 64))]:
        monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes)
        build()
        monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(BudgetExceededError) as info:
            build()
        assert info.value.estimated_bytes == nbytes


MODEL_PARAMS = {
    "white": {},
    "ar1": {"rho": 0.5},
    "filtered_noise": {"filter": {"name": "gaussian_lowpass", "a": 16.0}},
}


def _traced(call):
    """``call()``'s result with tracemalloc's (current, peak) bytes over the call."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(MODEL_PARAMS))
def test_model_holds_the_bytes_its_refusal_counts(kind):
    # the budget counts a model's density and autocovariance as 16 N bytes
    n = 2**16
    make_model(kind, n, **MODEL_PARAMS[kind])  # first-call allocations stay out of the count
    model, (current, _) = _traced(lambda: make_model(kind, n, **MODEL_PARAMS[kind]))
    assert model.autocov.flags.owndata and model.autocov.dtype == np.float64
    assert current <= 16 * n + 4096


def _counted(monkeypatch, call):
    """The bytes ``call``'s budget refusal counts, read off the refusal under a zero budget."""
    with monkeypatch.context() as patch:
        patch.setattr(filterbank, "_BUDGET_BYTES", 0)
        with pytest.raises(BudgetExceededError) as info:
            call()
    return info.value.estimated_bytes


@pytest.mark.parametrize("n", [2**4, 2**10, 2**16])
@pytest.mark.parametrize("kind", sorted(MODEL_PARAMS))
def test_model_build_peaks_under_its_refusal_count(kind, n, monkeypatch):
    # ar1 peaks highest, at 80 N bytes and a few KiB while it inverts its density
    build = lambda: make_model(kind, n, **MODEL_PARAMS[kind])
    build()  # first-call allocations stay out of the count
    _, (_, peak) = _traced(build)
    assert peak <= _counted(monkeypatch, build)


@pytest.mark.parametrize("n, trials", [(2, 4000), (128, 2000), (1024, 500), (4096, 10)])
def test_simulate_holds_no_more_than_its_refusal_counts(n, trials, monkeypatch):
    # small N is mostly the Signal objects, large N the rows of the coefficient builder; few
    # long rows, as at N=4096, show the call's own root rows and numpy's casting buffers
    model = make_model("white", n)
    run = lambda: simulate(model, trials, seed=0)
    simulate(model, 3, seed=0)  # first-call allocations stay out of the count
    _, (_, peak) = _traced(run)
    assert peak <= _counted(monkeypatch, run)


@pytest.mark.parametrize("n", [2, 3])
def test_mc_memory_grows_by_one_value_per_trial(n):
    """The README's claim: past one block, each trial adds one 8-byte value."""
    bank = build_bank(morlet_mother(), 0, 64)
    model = make_model("white", 64)
    per_block = scattering._BLOCK_ELEMENTS // (len(bank.filters) ** (n - 1) * 64)
    assert per_block < 2000
    mc_layer_energy(model, bank, n, trials=10, seed=0)
    peaks = {}
    for trials in (2000, 6000):
        _, (_, peaks[trials]) = _traced(lambda: mc_layer_energy(model, bank, n, trials, seed=0))
    assert peaks[6000] - peaks[2000] <= 16 * 4000


@pytest.mark.parametrize("n, ceiling", [(2, 3 << 20), (3, 5 << 19)])
def test_mc_peak_stays_under_its_ceiling(n, ceiling):
    # 2000 trials on N=128, as the monte_carlo bench runs them: 3.58 and 3.10 MiB traced
    # peaks when layer n - 1 was held whole
    bank = build_bank(morlet_mother(), 0, 128)
    model = make_model("white", 128)
    mc_layer_energy(model, bank, n, trials=10, seed=0)  # first-call allocations stay out
    _, (_, peak) = _traced(lambda: mc_layer_energy(model, bank, n, trials=2000, seed=0))
    assert peak <= ceiling


def test_mc_budget_counts_one_trial_and_every_value(monkeypatch):
    bank = build_bank(morlet_mother(), 0, 64)  # 6 octaves
    model = make_model("white", 64)
    nbytes = 16 * 64 * 6**2 + 8 * 5  # one trial's layer 2, five 8-byte values
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes)
    mc_layer_energy(model, bank, 3, trials=5, seed=0)
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes - 1)
    with pytest.raises(BudgetExceededError) as info:
        mc_layer_energy(model, bank, 3, trials=5, seed=0)
    assert info.value.estimated_bytes == nbytes
