"""Randomized invariants of the transform layer and of the octave sums.

Hypothesis drives the scalar choices (grid size, seed, shift, frequency);
the arrays themselves come from a seeded numpy generator so failures
shrink to a reproducible (n, seed) pair instead of a 128-float blob.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatdecay.decay import _functional_terms, _lp_up_to_coarsest
from scatdecay.filterbank import X_WINDOW, build_bank, make_mother
from scatdecay.signals import (
    Signal,
    Spectrum,
    band_limited_signal,
    complex_tone,
    convolve,
    dft,
    energy,
    idft,
    modulus,
    reflection_index,
    shift,
)
from test_decay import reference_octave_sums

sizes = st.sampled_from((8, 16, 32, 64, 128))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_signal(n, seed, real=False):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    if not real:
        samples = samples + 1j * rng.standard_normal(n)
    return Signal(samples, real=real)


@given(sizes, seeds)
@settings(deadline=None)
def test_energy_matches_spectral_energy(n, seed):
    f = _random_signal(n, seed)
    coeffs = dft(f).coeffs
    assert energy(f) == pytest.approx(np.sum(np.abs(coeffs) ** 2), rel=1e-12)


@given(sizes, seeds)
@settings(deadline=None)
def test_transform_round_trip(n, seed):
    f = _random_signal(n, seed)
    back = idft(dft(f))
    assert np.allclose(back.samples, f.samples, rtol=0, atol=1e-12 * np.abs(f.samples).max())


@given(sizes, seeds, st.integers(min_value=-300, max_value=300))
@settings(deadline=None)
def test_shift_preserves_energy_and_spectral_magnitude(n, seed, k):
    f = _random_signal(n, seed)
    g = shift(f, k)
    # a circular shift permutes samples, so only summation order changes
    assert energy(g) == pytest.approx(energy(f), rel=1e-12)
    assert np.allclose(
        np.abs(dft(g).coeffs), np.abs(dft(f).coeffs), rtol=0, atol=1e-14
    )


@given(sizes, seeds, seeds)
@settings(deadline=None)
def test_modulus_is_nonexpansive(n, seed_a, seed_b):
    f = _random_signal(n, seed_a)
    g = _random_signal(n, seed_b)
    lhs = energy(Signal(modulus(f).samples - modulus(g).samples, real=True))
    rhs = energy(Signal(f.samples - g.samples))
    assert lhs <= rhs + 1e-15 * max(rhs, 1.0)


@given(sizes, seeds)
@settings(deadline=None)
def test_modulus_preserves_energy(n, seed):
    f = _random_signal(n, seed)
    assert energy(modulus(f)) == pytest.approx(energy(f), rel=1e-12)


@given(sizes, seeds, seeds)
@settings(deadline=None)
def test_convolution_is_linear(n, seed_a, seed_b):
    f = _random_signal(n, seed_a)
    g = _random_signal(n, seed_b)
    rng = np.random.default_rng(seed_a ^ seed_b)
    filt = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    combined = convolve(Signal(f.samples + g.samples), filt)
    split = convolve(f, filt).samples + convolve(g, filt).samples
    scale = np.abs(split).max() + 1.0
    assert np.allclose(combined.samples, split, rtol=0, atol=1e-12 * scale)


@given(sizes, seeds)
@settings(deadline=None)
def test_all_pass_filter_is_identity(n, seed):
    f = _random_signal(n, seed)
    out = convolve(f, Spectrum(np.ones(n, dtype=np.complex128)))
    assert np.allclose(out.samples, f.samples, rtol=0, atol=1e-12 * np.abs(f.samples).max())


@given(sizes)
def test_reflection_is_an_involution(n):
    idx = reflection_index(n)
    assert np.array_equal(idx[idx], np.arange(n))


@given(sizes, st.data())
def test_tone_has_unit_energy_and_single_bin(n, data):
    freq = data.draw(st.integers(min_value=-(n // 2), max_value=n // 2 - 1))
    tone = complex_tone(n, freq)
    assert energy(tone) == pytest.approx(1.0, rel=1e-12)
    coeffs = dft(tone).coeffs
    hot = np.abs(coeffs) > 1e-12
    assert hot.sum() == 1
    assert np.flatnonzero(hot)[0] == freq + n // 2


@given(st.sampled_from((32, 64, 128)), seeds, st.data())
@settings(deadline=None, max_examples=50)
def test_band_limited_signal_is_real_and_confined(n, seed, data):
    lo = data.draw(st.integers(min_value=1, max_value=n // 2 - 1))
    hi = data.draw(st.integers(min_value=lo, max_value=n // 2 - 1))
    f = band_limited_signal(n, (lo, hi), np.random.default_rng(seed))
    assert f.real
    w = np.arange(-(n // 2), n // 2)
    outside = (np.abs(w) < lo) | (np.abs(w) > hi)
    coeffs = dft(f).coeffs
    # synthesis goes through the time domain, so "zero" means FFT round-off
    assert np.all(np.abs(coeffs[outside]) <= 1e-13 * np.abs(coeffs).max())


@given(st.sampled_from((256, 2048)), seeds, st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=40), st.sampled_from(("morlet", "shannon")))
@settings(deadline=None, max_examples=60)
def test_octave_slice_sums_on_random_ascending_grids(n, seed, size, n_edges, mother):
    # ascending grids on [2^-8, N/2]; duplicates and points on the window's
    # edges 2^-j X_WINDOW, where an octave's terms start or stop, included
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = np.ldexp(np.array(X_WINDOW)[:, None], -np.arange(-40, 41)).ravel()
    edges = edges[(edges >= 2.0**-8) & (edges <= half)]
    omegas = np.sort(np.concatenate([
        2.0 ** rng.uniform(-8.0, np.log2(half), size),
        rng.choice(edges, n_edges),
    ]))
    bank = build_bank(make_mother(mother), 0, n)
    got = (*_functional_terms(bank, omegas), _lp_up_to_coarsest(bank, omegas))
    want = reference_octave_sums(bank, omegas)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
