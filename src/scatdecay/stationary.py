"""Wide-sense stationary models and Monte Carlo checks of the decay bound.

A model is specified by its mean and its spectral density on the
centered grid, normalized so that the density at a bin equals the
variance of that bin of the transform,

    density(w) = E |X_hat(w)|^2,

with the convention that the autocovariance is the plain inverse
transform sum R(k) = sum_w density(w) exp(2 pi i w k / N); in particular
R(0) = sum_w density(w) is the per-sample variance.

Realizations are synthesized spectrally: independent complex Gaussians
of unit second moment at positive bins, mirrored to negative bins, real
Gaussians at the two self-paired bins.  Convolution energies then have
an exact expectation,

    E ||X * h||^2 = |mean * h_hat(0)|^2 + sum_w |h_hat(w)|^2 density(w),

which pins layer one of the scattering cascade analytically and leaves
Monte Carlo only for the deeper layers.

Monte Carlo trials are drawn and scattered in the blocks of the energy-only
pass in ``scattering``, so memory grows by only 8 bytes per trial.  A trial
never leaves frequency: its coefficients, scaled to the FFT of its samples
and with the mean at bin 0, enter the cascade as they are, with no inverse
transform; ``simulate`` inverts the same coefficients.  One run draws all
its trials from one ``np.random.default_rng(seed)``: trial k is row k of
its N-wide standard normal rows, whichever block takes it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .decay import DecayConstants, _layer_bound
from .filterbank import FilterBank, _check_bytes
from .scattering import _block_profiles, _check_profile
from .signals import (
    Signal, Spectrum, _check_length, _frozen, _only, _read_json, _real, _whole, _write_json, dft, frequencies,
    gaussian_lowpass,
)

__all__ = [
    "StationaryModel",
    "MCEstimate",
    "filter_spectrum",
    "make_model",
    "simulate",
    "expected_filter_energy",
    "mc_layer_energy",
    "stationary_bound",
    "save_model",
    "load_model",
]

@dataclass(frozen=True)
class StationaryModel:
    """Mean plus spectral density of a circular stationary process."""

    kind: str
    params: dict
    n: int
    mean: float
    density: np.ndarray
    autocov: np.ndarray


def _finalize(kind: str, params: dict, n: int, mean: float, density: np.ndarray):
    if not math.isfinite(mean):  # the refusal a non-finite density gets below
        raise ValueError("values must be finite")
    # every family builds a nonnegative density but for rounding, which the clip removes, and
    # |R(k)| <= R(0) follows from it; then a Spectrum's refusal of values not finite (a NaN
    # passes np.maximum)
    density = _frozen(np.maximum(density, 0.0))
    # the density is even, so its transform is real but for rounding; a copy of the real part,
    # so the model holds 8 N bytes here and not the complex transform; a finite density can
    # still sum to inf
    autocov = _frozen((np.fft.ifft(np.fft.ifftshift(density)) * n).real.copy())
    # within 2^27 standard deviations one rounding of mean + x moves it by at most
    # 2^-26 of the standard deviation; far past that, it rounds the fluctuation x away
    if autocov[0] > 0.0 and abs(mean) > 2.0**27 * math.sqrt(autocov[0]):
        raise ValueError(
            f"mean {mean:g} is more than 2^27 times the standard deviation "
            f"{math.sqrt(autocov[0]):g}: float64 cannot hold the fluctuation beside it"
        )
    reach = n * (64.0 * math.sqrt(autocov[0]) + abs(mean))  # make_model's docstring argues it
    if reach > 2.0**512:
        raise ValueError(
            f"N (64 sqrt(R(0)) + |mean|) = {reach:.6g} is over 2^512 = {2.0**512:.6g}: "
            "the squared spectrum of a Monte Carlo trial could overflow float64"
        )
    return StationaryModel(
        kind=kind, params=params, n=n, mean=float(mean), density=density, autocov=autocov
    )


def filter_spectrum(name: str, n: int, **params) -> Spectrum:
    """Named filters available to filtered-noise models; a parameter the filter does not read is refused."""
    if name == "gaussian_lowpass":
        _only(f"filter {name!r}", params, "a")
        return gaussian_lowpass(float(_real("a", params["a"])), n)
    if name == "band":
        _only(f"filter {name!r}", params, "lo", "hi", "amplitude")
        lo, hi = float(_real("lo", params["lo"])), float(_real("hi", params["hi"]))
        if not 0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
        amp = float(_real("amplitude", params.get("amplitude", 1.0)))
        w = np.abs(frequencies(n))
        return Spectrum((amp * ((w >= lo) & (w <= hi))).astype(np.complex128))
    raise ValueError(f"unknown filter {name!r}")


# every array of a model is refused unless finite, so numpy's overflow warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def make_model(kind: str, n: int, **params) -> StationaryModel:
    """Build one of the registered model families.

    white
        flat density sigma^2 at every bin (per-sample variance N sigma^2).
    ar1
        exponential autocovariance wrapped on the circle,
        R(k) = sigma^2 (rho^k + rho^(N-k)) / (1 + rho^N), so sigma^2 is
        the per-sample variance; density follows by transform.
    filtered_noise
        white noise of level sigma shaped by a named filter,
        density = sigma^2 |h_hat|^2.

    Every family accepts ``mean`` (default 0), but not one more than 2^27
    standard deviations sqrt(R(0)) from zero, and ``sigma`` (default 1); a
    parameter its family does not read is refused.

    A model is refused when N (64 sqrt(R(0)) + |mean|) exceeds 2^512, so that
    no sum a Monte Carlo trial forms overflows.  A trial's spectrum is N
    times sqrt(density(w)) g(w), plus N mean at w = 0, where each g(w) is
    made of standard normals of modulus at most z; its squares sum to at
    most (N (z sqrt(R(0)) + |mean|))^2.  By Parseval, and on a bank whose
    octave sums stay within one (``stationary run`` computes the constants,
    which check it, first), no sum a deeper layer forms exceeds that.  So a
    trial stays finite for z up to 64, a modulus a standard normal passes
    with probability below 10^-880.  A model of zero variance is refused
    just where its squared spectrum (N mean)^2 overflows.  The spread of
    the trials' energies is summed apart, in ``mc_layer_energy``.

    Refusals come in this order, each before any array the next one needs:

    1. the build's peak over the memory budget: 80 N bytes, what ``ar1``
       holds at once while inverting its density (its autocovariance, the
       complex spectrum the density is read from and the inverse transform),
       and 16 KiB of Python objects;
    2. N not a power of two >= 2;
    3. ``mean`` or ``sigma`` not a number, a negative ``sigma``, or one whose
       square underflows;
    4. the family's own: an unknown kind or key, a parameter out of range,
       or a filter it cannot build;
    5. the built model: values not finite, the mean too far from zero, or
       trials that could overflow.

    The model itself keeps its density and autocovariance, 16 N bytes.
    """
    _check_bytes(f"a model on N={n}", 80 * n + (1 << 14))
    _check_length(n)
    params = dict(params)
    mean = float(_real("mean", params.setdefault("mean", 0.0)))
    sigma = float(_real("sigma", params.setdefault("sigma", 1.0)))
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    variance = sigma * sigma  # overflows to inf, where sigma**2 would raise OverflowError
    if sigma > 0 and variance < np.finfo(np.float64).tiny:  # a subnormal or zero density, silently
        raise ValueError(f"sigma {sigma:g} is positive, but its square is below float64's smallest normal number")
    if kind == "white":
        _only(f"model kind {kind!r}", params, "mean", "sigma")
        density = np.full(n, variance)
    elif kind == "ar1":
        _only(f"model kind {kind!r}", params, "mean", "sigma", "rho")
        rho = float(_real("rho", params.get("rho", 0.0)))
        params["rho"] = rho
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        k = np.arange(n, dtype=np.float64)
        autocov = variance * (rho**k + rho ** (n - k)) / (1.0 + rho**n)
        density = dft(Signal(autocov, real=True)).coeffs.real
    elif kind == "filtered_noise":
        _only(f"model kind {kind!r}", params, "mean", "sigma", "filter")
        spec = params.get("filter")
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValueError("filtered_noise needs filter={'name': ..., ...}")
        h = filter_spectrum(spec["name"], n, **{k: v for k, v in spec.items() if k != "name"})
        density = variance * np.abs(h.coeffs) ** 2
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return _finalize(kind, params, n, mean, density)


def _check_seed(seed) -> None:
    # default_rng takes arrays and seed objects too; a run's seed is one plain nonnegative
    # integer, as its report records it
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _coefficient_rows(model: StationaryModel, draws: np.ndarray) -> np.ndarray:
    """The zero-mean spectral coefficients, in FFT bin order, of one trial per row of draws.

    A row holds N standard normals: the real parts of the positive bins,
    their imaginary parts, then the real draws of the self-paired bins
    w = 0 and w = -N/2.  Scaling and mirroring act on all rows at once.
    """
    n = model.n
    half = n // 2  # FFT bin of w = -N/2; bins 1..half-1 hold w = 1..N/2-1
    pairs = half - 1
    root = np.sqrt(np.fft.ifftshift(model.density))
    coeffs = np.empty((len(draws), n), dtype=np.complex128)
    re, im = draws[:, :pairs], draws[:, pairs : 2 * pairs]
    coeffs[:, 0] = root[0] * draws[:, -2]
    # what root * (re + 1j im) / sqrt(2) rounds to, but for the sign of a zero where the
    # density is 0, written into the real and imaginary parts without a complex temporary
    positive = coeffs[:, 1:half]
    for part, normals in ((positive.real, re), (positive.imag, im)):
        np.multiply(root[1:half], normals, out=part)
        part *= 1.0 / math.sqrt(2.0)
    coeffs[:, half] = root[half] * draws[:, -1]
    coeffs[:, half + 1 :] = np.conj(coeffs[:, half - 1 : 0 : -1])  # w = -N/2+1..-1
    return coeffs


def _spectrum_rows(model: StationaryModel, draws: np.ndarray) -> np.ndarray:
    """The FFTs of ``simulate``'s realizations of these draws, built without leaving frequency."""
    spec = _coefficient_rows(model, draws)
    spec *= model.n
    spec[:, 0] += model.n * model.mean  # the mean moves bin 0 alone
    return spec


def simulate(model: StationaryModel, trials: int, seed: int) -> list[Signal]:
    """Draw independent realizations, reproducibly.

    Trial k is row k of a (trials, N) standard normal draw from
    ``np.random.default_rng(seed)``, so trial k of a run is the same signal
    no matter how many trials are requested, and the same trial
    ``mc_layer_energy`` scores.  The coefficient rows are conjugate-symmetric
    by construction, so the real part of their inverse is the realization.
    The seed must be a nonnegative integer, and the peak held must fit the
    memory budget: per trial, 40 N bytes while inverting the coefficients
    (the complex coefficient row, its inverse transform and the real
    samples; building the row holds 32 N, with the draws and one mirrored
    half row) and 512 bytes of ``Signal`` objects; per call, 16 N bytes for
    the density's square root and its shifted copy, and 256 KiB for numpy's
    casting buffers.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_seed(seed)
    n = model.n
    _check_bytes(f"{trials} trials on N={n}", (40 * n + 512) * trials + 16 * n + (1 << 18))
    coeffs = _coefficient_rows(model, np.random.default_rng(seed).standard_normal((trials, n)))
    rows = (np.fft.ifft(coeffs, axis=-1) * n).real + model.mean
    return [Signal(row, real=True) for row in rows]


def expected_filter_energy(model: StationaryModel, h: Spectrum) -> float:
    """Exact E ||X * h||^2; no sampling involved."""
    if h.n != model.n:
        raise ValueError(f"filter length {h.n} does not match model grid {model.n}")
    w = frequencies(model.n)
    gain = np.abs(h.coeffs) ** 2
    dc = float(np.abs(h.coeffs[w == 0][0]))
    return float((model.mean * dc) ** 2 + np.sum(gain * model.density))


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean of one layer's energy over independent realizations."""

    n: int
    estimate: float
    stderr: float
    trials: int
    seed: int


def _check_mc_request(
    model: StationaryModel, bank: FilterBank, n: int, trials: int, seed: int
) -> None:
    """The refusals of ``mc_layer_energy``; cheap enough to make before any work."""
    if n < 1:
        raise ValueError("layer must be at least 1")
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    _check_seed(seed)
    if bank.n != model.n:
        raise ValueError(f"bank grid {bank.n} does not match model grid {model.n}")
    # one trial's layer n - 1, as a block is never smaller, and the 8-byte value per trial
    _check_profile(bank, n, f"layer {n} over {trials} trials", 8 * trials)


def mc_layer_energy(
    model: StationaryModel, bank: FilterBank, n: int, trials: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of E (layer-n energy) under the model.

    The seed must be a nonnegative integer.  One trial's layer n - 1
    (N B^(n-1) complex values for B octaves) plus 8 bytes per trial must fit
    the memory budget.  That layer is weighed a chunk at a time and never
    held; the ``scattering`` module docstring says how the count compares
    with what the pass holds.

    Trials are drawn as spectra and scored in the blocks of the energy-only
    pass, whose deepest formed layer is n - 1.  Each block takes its trials'
    rows from one ``np.random.default_rng(seed)`` in turn, on the calling
    thread, so trial k is row k of that stream, the trial ``simulate``
    returns, whatever its block.  A block's trials are scored on up to two
    usable CPUs, one contiguous share each, with the bits of one CPU; only
    layer n is weighed, since no other layer's energy is read.
    """
    _check_mc_request(model, bank, n, trials, seed)
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    draw = lambda start, k: _spectrum_rows(model, rng.standard_normal((k, model.n)))
    for start, profiles in _block_profiles(bank, n, trials, draw, deepest_only=True):
        values[start : start + profiles.shape[1]] = profiles[n]
    # np.std squares deviations as large as the energies, which overflow past about 2^498 and
    # underflow below about 2^-537; the energies are summed divided by the power of two just
    # above the largest, which moves no bit of a sum that stays normal undivided
    exponent = math.frexp(float(np.max(values)))[1]
    np.ldexp(values, -exponent, out=values)
    estimate = math.ldexp(float(np.mean(values)), exponent)
    stderr = math.ldexp(float(np.std(values, ddof=1)), exponent) / math.sqrt(trials)
    return MCEstimate(n=n, estimate=estimate, stderr=stderr, trials=trials, seed=seed)


def stationary_bound(model: StationaryModel, constants: DecayConstants, n: int) -> float:
    """Expected layer-n energy bound sum_w density(w) (1 - |chi_hat(w)|^2).

    The mean never enters: the bound's Gaussian equals one at w = 0, so
    the deterministic component is annihilated exactly.
    """
    return _layer_bound(model.density, constants, n)


def save_model(path: str | os.PathLike, model: StationaryModel) -> None:
    _write_json(path, {"kind": model.kind, "params": model.params, "N": model.n})


def load_model(path: str | os.PathLike) -> StationaryModel:
    """The model a ``save_model`` file names, built by ``make_model``.

    The file is read, and the model built, by ``signals._read_json``, so text
    that is not JSON, a missing or unknown key, a value of the wrong type
    (``params`` must be an object), a size that is not an integer and every
    refusal of ``make_model`` are reported as "model file <path>: <reason>".
    """
    return _read_json(path, "model", _model_from)


def _model_from(payload) -> StationaryModel:
    """``make_model`` of a model file's payload, which holds no key but ``kind``, ``params`` and ``N``."""
    _only("model recipe", payload, "kind", "params", "N")
    return make_model(payload["kind"], _whole(payload["N"]), **payload.get("params", {}))
