import re

import numpy as np
import pytest

from scatdecay.signals import (
    Signal,
    Spectrum,
    band_limited_signal,
    complex_tone,
    convolve,
    dft,
    dirac,
    energy,
    frequencies,
    gaussian_lowpass,
    idft,
    modulus,
    read_signal,
    reflection_index,
    shift,
    write_signal,
)


def direct_energy(samples):
    # Plain loop, no vectorization: the independent oracle for energy().
    total = 0.0
    for v in samples:
        total += abs(v) ** 2
    return total / len(samples)


def direct_convolve(f, g):
    # O(N^2) circular convolution matching the (1/N)-weighted product rule.
    n = len(f)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for k in range(n):
            out[m] += f[k] * g[(m - k) % n]
    return out / n


def test_frequency_grid_is_centered():
    assert frequencies(8).tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]


def test_reflection_index_is_involution():
    n = 16
    idx = reflection_index(n)
    w = frequencies(n)
    # -(-w) = w for every bin, and the unpaired bin -n/2 maps to itself.
    assert np.array_equal(idx[idx], np.arange(n))
    assert idx[0] == 0
    assert np.array_equal(w[idx][1:], -w[1:])


@pytest.mark.parametrize("n", [2, 3, 5, 24, 0, -8])
def test_non_power_of_two_rejected(n):
    if n == 2:
        Signal(np.zeros(2))  # smallest legal size
        return
    with pytest.raises(ValueError):
        Signal(np.zeros(max(n, 1)) if n > 0 else np.zeros(0))


def test_samples_are_locked():
    sig = Signal(np.ones(4))
    with pytest.raises(ValueError):
        sig.samples[0] = 5.0


def test_real_flag_enforced_exactly():
    with pytest.raises(ValueError):
        Signal(np.ones(4) + 1e-300j, real=True)


def test_dirac_transform_is_all_ones():
    imp = dirac(16)
    assert imp.samples[0] == 16.0
    assert np.array_equal(dft(imp).coeffs, np.ones(16, dtype=complex))


def test_dirac_energy():
    assert energy(dirac(32)) == 32.0


@pytest.mark.parametrize("omega", [-8, -3, 0, 1, 7])
def test_tone_transform_is_unit_spike(omega):
    n = 16
    spec = dft(complex_tone(n, omega)).coeffs
    expected = np.zeros(n, dtype=complex)
    expected[omega + n // 2] = 1.0
    assert np.max(np.abs(spec - expected)) < 1e-13


def test_tone_energy_is_one():
    assert energy(complex_tone(64, 5)) == pytest.approx(1.0, abs=1e-14)


def test_tone_outside_grid_rejected():
    with pytest.raises(ValueError):
        complex_tone(16, 8)  # +n/2 is not on the centered grid


def test_energy_matches_direct_sum():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    sig = Signal(samples)
    assert energy(sig) == pytest.approx(direct_energy(samples), rel=1e-14)


def test_parseval_exact_to_roundoff():
    rng = np.random.default_rng(11)
    sig = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    spectral = float(np.sum(np.abs(dft(sig).coeffs) ** 2))
    assert spectral == pytest.approx(energy(sig), rel=1e-13)


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    sig = Signal(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    back = idft(dft(sig))
    assert np.max(np.abs(back.samples - sig.samples)) < 1e-13


def test_convolve_matches_direct_sum():
    # N=16 oracle: multiply in frequency vs. summing in time.
    rng = np.random.default_rng(5)
    f = Signal(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    filt = Spectrum(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    g = idft(filt)
    expected = direct_convolve(f.samples, g.samples)
    got = convolve(f, filt).samples
    assert np.max(np.abs(got - expected)) < 1e-12


def test_convolving_dirac_reproduces_filter():
    filt = gaussian_lowpass(2.0, 16)
    out = convolve(dirac(16), filt)
    assert np.max(np.abs(dft(out).coeffs - filt.coeffs)) < 1e-14


def test_convolve_length_mismatch():
    with pytest.raises(ValueError):
        convolve(dirac(16), gaussian_lowpass(2.0, 32))


def test_gaussian_lowpass_values():
    chi = gaussian_lowpass(4.0, 32).coeffs
    w = frequencies(32)
    assert chi[w == 0] == 1.0
    assert chi[w == 4].real == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert chi[w == -4] == chi[w == 4]


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_gaussian_lowpass_refuses_a_nonpositive_width(a):
    with pytest.raises(ValueError, match="^width must be positive$"):
        gaussian_lowpass(a, 32)


def test_modulus_is_real_and_preserves_energy_of_tone():
    tone = complex_tone(32, 3)
    m = modulus(tone)
    assert m.real
    assert np.max(np.abs(m.samples - 1.0)) < 1e-14


def test_shift_translates_samples():
    sig = dirac(8)
    moved = shift(sig, 3)
    assert moved.samples[3] == 8.0
    assert energy(moved) == energy(sig)


def test_shift_is_phase_in_frequency():
    sig = Signal(np.random.default_rng(9).standard_normal(16), real=True)
    a = np.abs(dft(shift(sig, 5)).coeffs)
    b = np.abs(dft(sig).coeffs)
    assert np.max(np.abs(a - b)) < 1e-13


def test_band_limited_support_and_realness():
    rng = np.random.default_rng(21)
    sig = band_limited_signal(64, (3, 12), rng)
    assert sig.real
    coeffs = dft(sig).coeffs
    w = frequencies(64)
    outside = (np.abs(w) < 3) | (np.abs(w) > 12)
    assert np.max(np.abs(coeffs[outside])) < 1e-15


def test_band_limited_rejects_bad_band():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        band_limited_signal(64, (0, 12), rng)
    with pytest.raises(ValueError):
        band_limited_signal(64, (3, 32), rng)


@pytest.mark.parametrize("fmt", ["csv", "raw"])
@pytest.mark.parametrize("real", [True, False])
def test_signal_io_round_trip(tmp_path, fmt, real):
    rng = np.random.default_rng(13)
    if real:
        sig = Signal(rng.standard_normal(16), real=True)
    else:
        sig = Signal(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    path = tmp_path / f"sig_{fmt}_{real}"
    if fmt == "csv":
        write_signal(path, sig)
    else:  # raw input is made outside the package: little-endian float64 plus a sidecar
        (sig.samples.real if real else sig.samples.view(np.float64)).astype("<f8").tofile(path)
        (tmp_path / f"sig_{fmt}_{real}.meta").write_text(f"N=16;complex={0 if real else 1}\n")
    back = read_signal(path)
    assert back.real == real
    assert np.array_equal(back.samples, sig.samples)


def test_write_signal_bytes_are_pinned(tmp_path):
    # one sample per line in shortest round-trip form: signed zeros, the least
    # subnormal and a huge value are written exactly
    real = Signal([-0.0, 5e-324, 1e300, -1.5], real=True)
    cplx = Signal(
        [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(0.1, -1e300), complex(5e-324, 2.0)]
    )
    write_signal(tmp_path / "real.csv", real)
    write_signal(tmp_path / "complex.csv", cplx)
    assert (tmp_path / "real.csv").read_bytes() == b"-0.0\n5e-324\n1e+300\n-1.5\n"
    assert (tmp_path / "complex.csv").read_bytes() == (
        b"-0.0,5e-324\n1e+300,-0.0\n0.1,-1e+300\n5e-324,2.0\n"
    )


def test_read_raw_with_bad_sidecar(tmp_path):
    path = tmp_path / "sig"
    dirac(8).samples.real.astype("<f8").tofile(path)
    (tmp_path / "sig.meta").write_text("N=eight;complex=0\n")
    with pytest.raises(ValueError):
        read_signal(path)


@pytest.mark.parametrize("meta, values", [("N=8;complex=0", 9), ("N=8;complex=1", 8)])
def test_read_raw_refuses_a_payload_of_the_wrong_size(tmp_path, meta, values):
    path = tmp_path / "sig"
    np.zeros(values, dtype="<f8").tofile(path)
    (tmp_path / "sig.meta").write_text(meta + "\n")
    flag = int(meta[-1])
    expected = (rf"^signal file {re.escape(str(path))}: raw payload holds {values} values, "
                rf"expected {8 << flag} \(N=8, complex={flag}\)$")
    with pytest.raises(ValueError, match=expected):
        read_signal(path)


def test_read_csv_rejects_three_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        read_signal(path)


def test_idft_real_flag_checks_symmetry():
    coeffs = np.zeros(8, dtype=complex)
    coeffs[5] = 1.0  # lone positive-frequency spike: not symmetric
    with pytest.raises(ValueError):
        idft(Spectrum(coeffs), real=True)
