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
pass in ``scattering``, so memory grows by only 8 bytes per trial.  Trial k is
fixed by the k-th child spawned from the root seed sequence: a block derives
its trials' PCG64 seed words in one vectorised pass, and each trial takes all
its Gaussians from one call of its own generator.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .decay import DecayConstants, _check_bound_layer, _layer_loss
from .filterbank import FilterBank, _check_bytes, _whole
from .scattering import _block_profiles, _check_budget, _power
from .signals import (
    Signal, Spectrum, _check_length, _frozen, _inverse_rows, _write_json, dft, frequencies,
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
    density = np.asarray(density, dtype=np.float64)
    if density.size != n:
        raise ValueError("density length does not match the grid")
    if np.min(density) < -1e-12:
        raise ValueError(f"spectral density is negative at its minimum {np.min(density)}")
    # the refusals of a Spectrum: finite values (a NaN passes the sign test), then the length
    density = _frozen(np.maximum(density, 0.0))
    _check_length(n)
    # a copy, so the model holds 8 N bytes here and not the complex transform; a finite
    # density can still sum to inf, and a NaN lag would pass the lag-zero test
    autocov = _frozen(_inverse_rows(np.fft.ifftshift(density), real=True).copy())
    if np.max(np.abs(autocov)) > autocov[0] + 1e-10:
        raise ValueError("autocovariance exceeds its lag-zero value")
    # within 2^27 standard deviations one rounding of mean + x moves it by at most
    # 2^-26 of the standard deviation; far past that, it rounds the fluctuation x away
    if autocov[0] > 0.0 and abs(mean) > 2.0**27 * math.sqrt(autocov[0]):
        raise ValueError(
            f"mean {mean:g} is more than 2^27 times the standard deviation "
            f"{math.sqrt(autocov[0]):g}: float64 cannot hold the fluctuation beside it"
        )
    return StationaryModel(
        kind=kind, params=params, n=n, mean=float(mean), density=density, autocov=autocov
    )


def filter_spectrum(name: str, n: int, **params) -> Spectrum:
    """Named filters available to filtered-noise models."""
    if name == "gaussian_lowpass":
        return gaussian_lowpass(float(params["a"]), n)
    if name == "band":
        lo, hi = float(params["lo"]), float(params["hi"])
        if not 0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
        amp = float(params.get("amplitude", 1.0))
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
    standard deviations sqrt(R(0)) from zero.  A model whose density and
    autocovariance, 16 N bytes, exceed the memory budget is refused first.
    """
    _check_bytes(f"a model on N={n}", 16 * n)
    params = dict(params)
    mean = float(params.setdefault("mean", 0.0))
    sigma = float(params.setdefault("sigma", 1.0))
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    variance = sigma * sigma  # overflows to inf, where sigma**2 would raise OverflowError
    if kind == "white":
        density = np.full(n, variance)
    elif kind == "ar1":
        rho = float(params.get("rho", 0.0))
        params["rho"] = rho
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        k = np.arange(n, dtype=np.float64)
        autocov = variance * (rho**k + rho ** (n - k)) / (1.0 + rho**n)
        density = dft(Signal(autocov, real=True)).coeffs.real
    elif kind == "filtered_noise":
        spec = params.get("filter")
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValueError("filtered_noise needs filter={'name': ..., ...}")
        h = filter_spectrum(spec["name"], n, **{k: v for k, v in spec.items() if k != "name"})
        density = variance * np.abs(h.coeffs) ** 2
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return _finalize(kind, params, n, mean, density)


def _check_seed(seed) -> None:
    # the root entropy the seed-word derivation assumes: one plain nonnegative integer
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): the 32-bit constants of
# its entropy mixing (A), its output hash (B) and its pool mix (L, R)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _xorshift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint64(16))


def _spawn_words(root: np.random.SeedSequence, start: int, count: int) -> np.ndarray:
    """PCG64 seed words of children ``start .. start + count - 1`` of ``root``.

    Row k of the (count, 4) uint64 result is what the root's child number
    ``start + k`` returns from ``generate_state(4, np.uint64)``, for a root
    of plain integer entropy and spawn keys below 2^32.  A child's entropy
    is the root's, padded to the 4-word pool, plus its one key word, so its
    pool is the root's with the key mixed in last; that mix and the output
    hash are vectorised over the keys, each word held in a uint64 and
    masked to 32 bits.
    """
    words = max(1, -(-int(root.entropy).bit_length() // 32))
    # the hash constant after the root's own mixing: 4 pool words, 12 cross
    # mixes, then 4 per entropy word beyond the pool
    h = _INIT_A * pow(_MULT_A, 4 + 12 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    keys = np.arange(start, start + count, dtype=np.uint64)
    pool = np.empty((count, 4), dtype=np.uint64)
    for d in range(4):
        mixed = keys ^ np.uint64(h)
        h = h * _MULT_A & _MASK32
        mixed = _xorshift16(mixed * np.uint64(h) & np.uint64(_MASK32))
        left = np.uint64(_MIX_L * int(root.pool[d]) & _MASK32)
        pool[:, d] = _xorshift16((left - np.uint64(_MIX_R) * mixed) & np.uint64(_MASK32))
    state = np.empty((count, 8), dtype=np.uint64)
    h = _INIT_B
    for i in range(8):
        mixed = pool[:, i % 4] ^ np.uint64(h)
        h = h * _MULT_B & _MASK32
        state[:, i] = _xorshift16(mixed * np.uint64(h) & np.uint64(_MASK32))
    # 32-bit words pair up little-endian into the 64-bit seed words
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed seed words.

    PCG64 asks its seed sequence for exactly four uint64 words, once.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _simulate_rows(model: StationaryModel, states: np.ndarray) -> np.ndarray:
    """One real realization per row of PCG64 seed words, shape (len(states), N).

    Each trial draws from its own generator, in one call, so a row depends
    on its seed words alone; scaling, mirroring and the inverse transform
    act on all rows at once.
    """
    n = model.n
    half = n // 2  # FFT bin of w = -N/2; bins 1..half-1 hold w = 1..N/2-1
    pairs = half - 1
    root = np.sqrt(np.fft.ifftshift(model.density))
    # per trial: real parts of the positive bins, their imaginary parts, then
    # the real draws of the two self-paired bins, in the generator's order
    draws = np.empty((len(states), 2 * pairs + 2))
    for row, words in zip(draws, states):
        np.random.Generator(np.random.PCG64(_Words(words))).standard_normal(out=row)
    coeffs = np.empty((len(states), n), dtype=np.complex128)
    re, im = draws[:, :pairs], draws[:, pairs : 2 * pairs]
    coeffs[:, 0] = root[0] * draws[:, -2]
    coeffs[:, 1:half] = root[1:half] * (re + 1j * im) / math.sqrt(2.0)
    coeffs[:, half] = root[half] * draws[:, -1]
    coeffs[:, half + 1 :] = np.conj(coeffs[:, half - 1 : 0 : -1])  # w = -N/2+1..-1
    return _inverse_rows(coeffs, real=True) + model.mean


def simulate(model: StationaryModel, trials: int, seed: int) -> list[Signal]:
    """Draw independent realizations, reproducibly.

    Trial k is fixed by the k-th child spawned from ``SeedSequence(seed)``,
    whose seed words are derived for all trials in one pass, so trial k of a
    run is the same signal no matter how many trials are requested.  The
    seed must be a nonnegative integer, and the draw and coefficient rows,
    24 N bytes per trial, must fit the memory budget.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_seed(seed)
    _check_bytes(f"{trials} trials on N={model.n}", 24 * model.n * trials)
    states = _spawn_words(np.random.SeedSequence(seed), 0, trials)
    return [Signal(row, real=True) for row in _simulate_rows(model, states)]


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
    _check_budget(f"layer {n} over {trials} trials", bank,
                  model.n * _power(len(bank.filters), n - 1), 8 * trials)


def mc_layer_energy(
    model: StationaryModel, bank: FilterBank, n: int, trials: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of E (layer-n energy) under the model.

    The seed must be a nonnegative integer.  One trial's layer n - 1
    (N B^(n-1) complex values for B octaves) plus 8 bytes per trial must fit
    the memory budget.

    Trials are drawn and scored in the blocks of the energy-only pass, whose
    deepest formed layer is n - 1; trial k is fixed by the k-th child spawned
    from ``SeedSequence(seed)``, so its value does not depend on its block.
    """
    _check_mc_request(model, bank, n, trials, seed)
    root = np.random.SeedSequence(seed)
    values = np.empty(trials)
    draw = lambda start, k: _simulate_rows(model, _spawn_words(root, start, k))
    for start, profiles in _block_profiles(bank, n, trials, draw):
        values[start : start + profiles.shape[1]] = profiles[n]
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials))
    return MCEstimate(n=n, estimate=estimate, stderr=stderr, trials=trials, seed=seed)


def stationary_bound(model: StationaryModel, constants: DecayConstants, n: int) -> float:
    """Expected layer-n energy bound sum_w density(w) (1 - |chi_hat(w)|^2).

    The mean never enters: the bound's Gaussian equals one at w = 0, so
    the deterministic component is annihilated exactly.
    """
    _check_bound_layer(n)
    w = frequencies(model.n)
    return float(np.sum(model.density * _layer_loss(constants, w, n)))


def save_model(path: str | os.PathLike, model: StationaryModel) -> None:
    _write_json(path, {"kind": model.kind, "params": model.params, "N": model.n})


def load_model(path: str | os.PathLike) -> StationaryModel:
    with open(os.fspath(path)) as fh:
        payload = json.load(fh)
    try:
        return make_model(payload["kind"], _whole(payload["N"]), **dict(payload.get("params", {})))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None
