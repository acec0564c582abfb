"""Periodic signals on the unit circle and their discrete Fourier pairs.

Everything in this package lives on the circle [0, 1) sampled at the N
points t_k = k/N, with N a power of two.  Frequency content is indexed by
the centered integer grid {-N/2, ..., N/2 - 1}.  With the normalization
used here (forward transform divided by N) the transform of a unit
complex tone is a unit spike, and energy

    energy(s) = (1/N) * sum_k |s_k|^2 = sum_w |c_w|^2

is preserved exactly between the two domains.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "Spectrum",
    "frequencies",
    "reflection_index",
    "dft",
    "idft",
    "convolve",
    "modulus",
    "energy",
    "shift",
    "gaussian_lowpass",
    "dirac",
    "complex_tone",
    "band_limited_signal",
    "read_signal",
    "write_signal",
]


def _check_length(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only once every value is found finite."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    arr.setflags(write=False)
    return arr


def _locked(values) -> np.ndarray:
    arr = _frozen(np.array(values, dtype=np.complex128, copy=True).reshape(-1))
    _check_length(arr.size)
    return arr


@dataclass(frozen=True)
class Signal:
    """Samples of a periodic function at t_k = k/N.

    ``real=True`` asserts the imaginary part is identically zero; the
    constructor enforces it exactly rather than within a tolerance, so
    callers must strip known-zero imaginary round-off themselves.
    """

    samples: np.ndarray
    real: bool = False

    def __post_init__(self):
        object.__setattr__(self, "samples", _locked(self.samples))
        if self.real and np.any(self.samples.imag != 0.0):
            raise ValueError("real=True but imaginary part is nonzero")

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on the centered grid {-N/2, ..., N/2 - 1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _locked(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.size


def frequencies(n: int) -> np.ndarray:
    """Centered integer frequency grid for n samples."""
    _check_length(n)
    return np.arange(-(n // 2), n // 2)


def reflection_index(n: int) -> np.ndarray:
    """Index map sending the bin of w to the bin of -w (mod n).

    On the centered grid -n/2 has no positive partner and maps to itself.
    """
    _check_length(n)
    return np.concatenate(([0], np.arange(n - 1, 0, -1)))


def dft(signal: Signal) -> Spectrum:
    return Spectrum(np.fft.fftshift(np.fft.fft(signal.samples)) / signal.n)


def idft(spectrum: Spectrum, real: bool = False) -> Signal:
    """Invert ``dft``.

    With ``real=True`` the caller asserts the coefficients are
    conjugate-symmetric.  The claim is refused when the imaginary part
    exceeds 1e-9 of the largest real sample (or of 1); otherwise the
    round-off imaginary part is dropped so the result carries an exact zero
    imaginary part.
    """
    samples = np.fft.ifft(np.fft.ifftshift(spectrum.coeffs)) * spectrum.n
    if real:
        scale = max(float(np.max(np.abs(samples.real))), 1.0)
        if np.max(np.abs(samples.imag)) > 1e-9 * scale:
            raise ValueError("coefficients are not conjugate-symmetric")
        samples = samples.real
    return Signal(samples, real=real)


def convolve(signal: Signal, filt: Spectrum) -> Signal:
    """Circular convolution, evaluated as a product in frequency."""
    if signal.n != filt.n:
        raise ValueError(f"length mismatch: {signal.n} != {filt.n}")
    spec = dft(signal)
    return idft(Spectrum(spec.coeffs * filt.coeffs))


def modulus(signal: Signal) -> Signal:
    return Signal(np.abs(signal.samples), real=True)


def _row_energies(batch: np.ndarray) -> np.ndarray:
    """``energy`` of each row of a 2-D array of samples."""
    if np.iscomplexobj(batch):
        return np.sum(batch.real**2 + batch.imag**2, axis=1) / batch.shape[1]
    return np.sum(batch**2, axis=1) / batch.shape[1]


def energy(signal: Signal) -> float:
    """Squared norm (1/N) * sum |s_k|^2."""
    return float(_row_energies(signal.samples[None, :])[0])


def shift(signal: Signal, steps: int) -> Signal:
    """Translate by ``steps`` grid points: (T_m f)(t) = f(t - m/N)."""
    return Signal(np.roll(signal.samples, steps), real=signal.real)


def gaussian_lowpass(a: float, n: int) -> Spectrum:
    """Gaussian low-pass profile exp(-(w/a)^2) on the length-n grid."""
    if a <= 0:
        raise ValueError("width must be positive")
    w = frequencies(n)
    return Spectrum(np.exp(-((w / a) ** 2)).astype(np.complex128))


def dirac(n: int) -> Signal:
    """Discrete impulse with unit integral, so its transform is all ones."""
    samples = np.zeros(n, dtype=np.complex128)
    samples[0] = n
    return Signal(samples, real=True)


def complex_tone(n: int, omega: int) -> Signal:
    """Unit tone exp(2*pi*i*omega*t) on the sample grid."""
    w = int(omega)
    if not -(n // 2) <= w < n // 2:
        raise ValueError(f"frequency {w} outside the length-{n} grid")
    t = np.arange(n) / n
    return Signal(np.exp(2j * np.pi * w * t))


def band_limited_signal(
    n: int,
    band: tuple[int, int],
    rng: np.random.Generator,
) -> Signal:
    """Real random signal supported on |w| inside ``band`` (inclusive).

    Standard complex Gaussian coefficients at the positive bins, mirrored
    as conjugates to the negative ones, so the samples are exactly real.
    """
    lo, hi = int(band[0]), int(band[1])
    if not 1 <= lo <= hi < n // 2:
        raise ValueError(f"band {band} not inside the length-{n} grid")
    w = frequencies(n)
    coeffs = np.zeros(n, dtype=np.complex128)
    pos = (w >= lo) & (w <= hi)
    draw = rng.standard_normal((2, int(pos.sum())))
    coeffs[pos] = (draw[0] + 1j * draw[1]) / np.sqrt(2.0)
    neg = (w <= -lo) & (w >= -hi)
    coeffs[neg] = np.conj(coeffs[pos][::-1])
    return idft(Spectrum(coeffs), real=True)


# ---------------------------------------------------------------------------
# File formats.  Every file the package writes is written here, through
# ``_write_text``, and every file it reads is read here: a signal by
# ``read_signal``, a bank or model recipe by ``_read_json``, whose caller maps
# the payload's keys and refuses any other with ``_only``.  Both read inside
# ``_reading``, the one place that decides how a refused input file is
# reported.  A signal's CSV holds one sample per line, "re" or "re,im"; raw
# holds little-endian float64, interleaved re,im when complex, with a sidecar
# "<path>.meta" recording the count and complexity.  Raw is input only.


@contextlib.contextmanager
def _reading(path: str | os.PathLike, what: str):
    """Report every refusal raised inside as ``ValueError("<what> file <path>: <reason>")``.

    The refusals are the ``ValueError``, ``KeyError``, ``TypeError``,
    ``OverflowError`` and ``RecursionError`` of reading the file or of building
    what it describes.  An ``OSError``, a file that cannot be opened, keeps its
    own message, which names the file, and so does every ``ScatdecayError``,
    such as a request over the memory budget.
    """
    try:
        yield
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{what} file {path}: {exc}") from None


def _whole(value) -> int:
    """A size read from a bank or model file; int() would truncate 128.7 to 128."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise TypeError(f"sizes must be integers, got {value!r}")
    return int(value)


def _only(what: str, params, *keys: str) -> None:
    """Refuse ``params`` of ``what`` unless it is a JSON object whose every key is one of the ``keys`` read."""
    if not isinstance(params, dict):
        raise TypeError(f"{what} must be an object, got {params!r}")
    for key in params:
        if key not in keys:
            raise ValueError(f"{what} takes no parameter {key!r}")


def _real(key: str, value):
    """The number ``value`` a bank or model file gives ``key``; float() would read true as 1.0 and "2" as 2.0.

    Of strings, only "inf", "-inf" and "nan" are taken: ``_write_json`` spells
    a non-finite float so, and float() reads it back.
    """
    if isinstance(value, bool) or isinstance(value, str) and value not in ("inf", "-inf", "nan"):
        raise TypeError(f"parameter {key!r} must be a number, got {value!r}")
    return value


def _read_json(path: str | os.PathLike, what: str, parse):
    """``parse(payload)`` of the JSON file at ``path``, a ``what`` recipe such as "bank" or "model".

    The file is read, and ``parse`` builds the bank or model, inside
    ``_reading``: a file that is not JSON (not UTF-8, not JSON text, or
    nested past the parser's depth), a key missing, a value of the wrong type
    or too long for float64, and every refusal of the build are reported as
    "<what> file <path>: <reason>".
    """
    with _reading(path, what), open(os.fspath(path), encoding="utf-8") as fh:
        return parse(json.load(fh))


def _write_text(path: str | os.PathLike, text: str) -> None:
    with open(os.fspath(path), "w") as fh:
        fh.write(text)


def write_signal(path: str | os.PathLike, signal: Signal) -> None:
    """CSV in one write, floats in shortest round-trip form: ``read_signal`` gives the bits back."""
    re, im = signal.samples.real.tolist(), signal.samples.imag.tolist()
    lines = (f"{x!r}\n" for x in re) if signal.real else (f"{x!r},{y!r}\n" for x, y in zip(re, im))
    _write_text(path, "".join(lines))


def _jsonable(value):
    """``value`` with every non-finite float spelled as a string, "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # float() first, so a numpy float is spelled as a float is
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: str | os.PathLike, payload: dict) -> None:
    # the package's one JSON format: strict JSON, sorted keys, two-space indent, final newline
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_table(path: str | os.PathLike, header: str, rows) -> None:
    """The package's one table format: ``header``, then each row's values joined by commas, as ``repr``."""
    _write_text(path, header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))


def read_signal(path: str | os.PathLike) -> Signal:
    """Load a signal from CSV, or from raw float64 via its sidecar.

    Every refusal is reported as "signal file <path>: <reason>" by
    ``_reading``.  A signal with a sample of modulus over 2^510 / sqrt(N) is
    refused.  With octave sums at most one, the bound ``check_littlewood_paley``
    checks, a layer at most doubles a complex signal's energy and never grows a
    real one's, so every energy a run computes is at most 2 N max |s_k|^2 before
    its 1/N: at most 2^1021 under the bound, finite in float64.
    """
    with _reading(path, "signal"):
        sig = _parse_signal(os.fspath(path))
        bound = 2.0**510 / math.sqrt(sig.n)
        peak = float(np.max(np.abs(sig.samples)))
        if peak > bound:
            raise ValueError(
                f"signal has a sample of modulus {peak:.6g}, over 2^510 / sqrt(N) = "
                f"{bound:.6g} at N={sig.n}: its energies would overflow float64"
            )
    return sig


def _parse_signal(path: str) -> Signal:
    """The signal at ``path``; ``read_signal`` names the file in every refusal."""
    if os.path.exists(path + ".meta"):
        # a byte that is not UTF-8 is read as a lone surrogate, which no field takes
        with open(path + ".meta", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read().strip()
        try:
            # a field without "=" splits into one item, which dict refuses with a ValueError
            fields = dict(item.split("=", 1) for item in text.split(";") if item)
            n, is_complex = int(fields["N"]), {"0": False, "1": True}[fields["complex"]]
            if n < 1:
                raise ValueError(f"N={n} is not positive")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed sidecar {path}.meta: {text!r}") from exc
        data = np.fromfile(path, dtype="<f8")
        count = 2 * n if is_complex else n
        if data.size != count:
            raise ValueError(
                f"raw payload holds {data.size} values, expected {count} (N={n}, complex={is_complex:d})"
            )
        rows = data.reshape(n, -1)  # interleaved re,im: one row per sample, as in a complex CSV
    else:
        with warnings.catch_warnings():
            # a file with no data line warns before it returns no rows, which are refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        if rows.size == 0:
            raise ValueError("signal CSV holds no samples")
        if rows.shape[1] > 2:
            raise ValueError(f"signal CSV must have 1 or 2 columns, got {rows.shape[1]}")
    return Signal(rows[:, 0] + 1j * rows[:, 1]) if rows.shape[1] == 2 else Signal(rows[:, 0], real=True)
