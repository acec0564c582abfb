"""Dyadic analytic filter banks and the conditions that certify them.

A bank is generated from a mother profile psi_hat by dyadic dilation,
psi_hat_j(w) = psi_hat(2^j w), with larger j meaning coarser scale.  A
bank keeps the octaves j in [j_min, j_max]; by default j_min reaches down
to the finest octave that still fits on the length-N grid.

Three conditions are checked here:

* the symmetrized squared sums stay below one (no energy inflation),
* positive frequencies strictly dominate their mirrors (analyticity),
* |psi_hat| decays at better-than-linear order near zero.

All three are grid evaluations that report a signed margin and a witness
frequency; downstream bounds consume the margins, so the checks never
round a failure up to a pass.

Every converged dyadic sum over all integer j, here and in ``decay``, is
added by ``_octave_sums`` under one rule: the terms are added in ascending
j, and only the in-window terms, those with 2^j w in ``X_WINDOW``, are
added at all.  The window depends on 2^j w alone, so doubling w shifts the
added terms by one octave and every such sum is dyadically homogeneous bit
for bit.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceededError
from .signals import Spectrum, _write_json, frequencies

__all__ = [
    "X_WINDOW",
    "MotherWavelet",
    "FilterBank",
    "ConditionReport",
    "MOTHERS",
    "morlet_mother",
    "morlet_first_order_mother",
    "even_morlet_mother",
    "shannon_mother",
    "bandpass_mother",
    "make_mother",
    "build_bank",
    "ideal_lp_sum",
    "check_littlewood_paley",
    "check_asymmetry",
    "estimate_vanishing_order",
    "save_bank",
    "load_bank",
]

# Scaled arguments x = 2^j * w kept when a dyadic sum over all integer j
# is truncated.  The Morlet mothers refuse a bump whose square at 16 is
# above 1e-33 of its peak and bandpass_mother refuses bands outside the
# window, so beyond 16 the truncation is exact in float64.  Below 1e-8 the
# Morlet and even Morlet squares stay under 1e-33; the first-order Morlet
# still squares to ~1e-19 there, and the order check refuses it anyway.
X_WINDOW = (1e-8, 16.0)

# widths from its center at which a squared Gaussian bump falls to 1e-33
# of its peak: exp(-REACH^2) = 1e-33
_BUMP_REACH = math.sqrt(33.0 * math.log(10.0))

# bytes of arrays one request may hold at once: a bank's filters, a model's
# density and autocovariance, the complex128 nodes of a scattering tree
_BUDGET_BYTES = 1 << 30

_COVERAGE_TOL = 1e-3  # largest |kept - full| octave sum inside a validated band
_ASYMMETRY_TOL = 1e-12  # largest excess of a mirror amplitude over its partner
_LP_TOL = 1e-9  # largest excess of a symmetrized squared octave sum over one
_ORDER_WINDOW = (2.0**-10, 2.0**-4)
_ORDER_POINTS = 25
_ORDER_THRESHOLD = 0.05


def _check_bytes(what: str, nbytes: int) -> None:
    """Refuse ``what``, before it is allocated, when its ``nbytes`` exceed the budget."""
    if nbytes > _BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} needs {nbytes:,} bytes at once, over the budget of {_BUDGET_BYTES:,}",
            estimated_bytes=nbytes,
        )


def _morlet_kappa(center: float, width: float) -> float:
    """Zero-mean correction amplitude of a Morlet bump inside the window."""
    if not width > 0:
        raise ValueError(f"Morlet width must be positive, got {width:g}")
    if not abs(center) + _BUMP_REACH * width <= X_WINDOW[1]:
        raise ValueError(
            f"Morlet bump at {center:g} of width {width:g} reaches past "
            f"{X_WINDOW[1]:g}, where octave sums are truncated; need "
            f"|center| + {_BUMP_REACH:.2f} * width <= {X_WINDOW[1]:g}"
        )
    # the profiles divide center * w by width^2; where that overflows on the
    # window it meets a correction Gaussian of 0 and makes NaN
    square = width * width
    if square == 0.0 or not math.isfinite(abs(center) * X_WINDOW[1] / square):
        raise ValueError(
            f"Morlet width {width:g} is too narrow for float64: "
            f"|center| * {X_WINDOW[1]:g} / width^2 overflows"
        )
    return math.exp(-(center**2) / (2.0 * width**2))


@dataclass(frozen=True)
class MotherWavelet:
    """Frequency profile of the generating wavelet.

    ``pair`` maps a float64 array of frequencies w to the real amplitudes
    (psi_hat(w), psi_hat(-w)), vectorized: every bank condition reads the
    mother at +2^j w and -2^j w together, so that pair is its one
    definition.  ``zero_near_origin`` marks indicator-type profiles
    that vanish identically on a neighbourhood of zero; the order check
    accepts those by flag instead of fitting a slope to zeros.
    """

    name: str
    params: dict
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    zero_near_origin: bool = False

    def __call__(self, w) -> np.ndarray:
        return np.asarray(self.pair(np.asarray(w, dtype=np.float64))[0], dtype=np.float64)


def _gaussian_pair_mother(name: str, params: dict, width: float, side) -> MotherWavelet:
    """The mother psi_hat(w) = side(w, g(w)) for the even Gaussian g(w) = exp(-w^2 / (2 width^2)).

    g(-w) and g(w) are the same bits, so the pair evaluates g once for both
    arguments: three exp calls per mirrored pair for the Morlet profiles.
    """

    def pair(w):
        g = np.exp(-(w**2) / (2.0 * width**2))
        return side(w, g), side(-w, g)

    return MotherWavelet(name, params, pair)


def morlet_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Analytic Morlet profile with a double zero at the origin.

    The Gaussian bump at ``center`` is corrected by a Gaussian at zero.
    A plain amplitude correction only cancels the value at the origin and
    leaves a linear term; multiplying the correction by
    (1 + center*w/width^2) also cancels the derivative, so
    |psi_hat(w)| = O(w^2) as w -> 0 and the order check passes with room
    to spare.  A bump that reaches past ``X_WINDOW`` is refused.
    """
    kappa = _morlet_kappa(center, width)

    def side(w, gauss):
        main = np.exp(-((w - center) ** 2) / (2.0 * width**2))
        return main - kappa * (1.0 + center * w / width**2) * gauss

    return _gaussian_pair_mother("morlet", {"center": center, "width": width}, width, side)


def morlet_first_order_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Morlet with only the zero-mean correction.

    Kept as the canonical near-linear profile: psi_hat(w) ~ c*w near the
    origin, so the vanishing-order check rejects it.  Useful in tests and
    as a contrast case; the decay machinery must refuse it.
    """
    kappa = _morlet_kappa(center, width)

    def side(w, gauss):
        return np.exp(-((w - center) ** 2) / (2.0 * width**2)) - kappa * gauss

    params = {"center": center, "width": width}
    return _gaussian_pair_mother("morlet_first_order", params, width, side)


def even_morlet_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Symmetrized Morlet, psi_hat(w) = psi_hat(-w).

    Satisfies the sum and order conditions but carries no analytic
    preference between +w and -w, so the strict-dominance check fails
    with margin zero.
    """
    base = morlet_mother(center, width)
    root_half = 1.0 / math.sqrt(2.0)

    def pair(w):
        # (minus + plus) * root_half, psi_hat(-w), has the same bits: float addition commutes
        plus, minus = base.pair(w)
        even = (plus + minus) * root_half
        return even, even

    return MotherWavelet("even_morlet", {"center": center, "width": width}, pair)


def bandpass_mother(lo: float, hi: float, amplitude: float = math.sqrt(2.0)) -> MotherWavelet:
    """Indicator of the half-open band (lo, hi] at a fixed amplitude.

    Generalizes the octave indicator; narrow bands make legal but nearly
    useless banks whose decay constants collapse, which is exactly what
    the degenerate-octave guard in the constants computation detects.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if lo < X_WINDOW[0] or hi > X_WINDOW[1]:
        raise ValueError(
            f"band ({lo}, {hi}] leaves the converged window "
            f"[{X_WINDOW[0]:g}, {X_WINDOW[1]:g}] where octave sums are taken"
        )

    scale = float(amplitude)  # float64 amplitudes, also from a JSON integer
    # at most ceil(log2(hi / lo)) octaves meet one frequency, so every octave
    # sum of squares is finite when this is
    octaves = math.ceil(math.log2(hi / lo))
    if not math.isfinite(scale * scale * octaves):
        raise ValueError(
            f"bandpass amplitude {amplitude:g} is outside float64: its octave sums "
            f"reach amplitude^2 * {octaves}, which is not finite"
        )

    def pair(w):
        return scale * ((w > lo) & (w <= hi)), scale * ((w < -lo) & (w >= -hi))

    return MotherWavelet(
        "bandpass", {"lo": lo, "hi": hi, "amplitude": amplitude}, pair, zero_near_origin=True
    )


def shannon_mother() -> MotherWavelet:
    """Indicator of the octave (1, 2], scaled so the octave sums are 1."""
    return replace(bandpass_mother(1.0, 2.0), name="shannon", params={})


MOTHERS: Mapping[str, Callable[..., MotherWavelet]] = {
    "morlet": morlet_mother,
    "morlet_first_order": morlet_first_order_mother,
    "even_morlet": even_morlet_mother,
    "shannon": shannon_mother,
    "bandpass": bandpass_mother,
}


def make_mother(name: str, **params) -> MotherWavelet:
    try:
        builder = MOTHERS[name]
    except KeyError:
        raise ValueError(f"unknown mother wavelet {name!r}") from None
    try:
        return builder(**params)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad parameters for mother {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Dyadic sums over all integer scales, truncated to the converged window.


def _octave_slices(mother: MotherWavelet, omegas: np.ndarray, j_max: int | None = None):
    """(j, columns, p, m) for each octave j, ascending, that reaches ``omegas``.

    ``omegas`` must be nonempty, strictly positive and ascending (ties
    allowed), else ``ValueError``; the frequencies whose 2^j w lies in
    ``X_WINDOW`` then form one slice, where p, m = |psi_hat(+-2^j w)|^2.  The
    mother is evaluated nowhere else, and the octaves above ``j_max`` not at all.
    """
    if omegas.size == 0 or not omegas[0] > 0.0 or not np.all(omegas[1:] >= omegas[:-1]):
        raise ValueError("frequencies must be nonempty, strictly positive and ascending")
    j_lo = int(math.ceil(math.log2(X_WINDOW[0] / float(omegas[-1]))))
    j_hi = int(math.floor(math.log2(X_WINDOW[1] / float(omegas[0]))))
    if j_max is not None:
        j_hi = min(j_hi, j_max)
    for j in range(j_lo, j_hi + 1):
        # 2^j w >= x iff w >= 2^-j x: scaling by a power of two is exact
        start = int(np.searchsorted(omegas, math.ldexp(X_WINDOW[0], -j), "left"))
        stop = int(np.searchsorted(omegas, math.ldexp(X_WINDOW[1], -j), "right"))
        if start < stop:
            plus, minus = mother.pair(np.ldexp(omegas[start:stop], j))
            yield j, slice(start, stop), plus**2, minus**2


def _octave_sums(mother: MotherWavelet, omegas: np.ndarray, terms, j_max: int | None = None):
    """One sum per array ``terms(j, w, p, m)`` returns on each slice of ``_octave_slices``.

    Octaves add in ascending j; a frequency no octave reaches keeps 0.0.
    ``terms`` is called once on empty arrays first, to count the sums.
    """
    empty = omegas[:0]
    sums = [np.zeros(omegas.shape) for _ in terms(0, empty, empty, empty)]
    for j, cols, p, m in _octave_slices(mother, omegas, j_max):
        for total, term in zip(sums, terms(j, omegas[cols], p, m)):
            total[cols] += term
    return sums


def ideal_lp_sum(mother: MotherWavelet, omegas) -> np.ndarray:
    """Symmetrized squared sum over all integer octaves (converged).

    The positive ``omegas`` may come in any order; each frequency gets the
    bits it has in the ascending grid.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    order = np.argsort(omegas, kind="stable")
    sp, sm = _octave_sums(mother, omegas[order], lambda j, w, p, m: (p, m))
    out = np.empty(omegas.size)
    out[order] = 0.5 * (sp + sm)
    return out


@dataclass(frozen=True)
class FilterBank:
    """Filters psi_hat_j sampled on the centered length-N grid.

    ``validated_band`` is the widest contiguous range of positive integer
    frequencies on which the retained octaves reproduce the full dyadic
    sum to within ``_COVERAGE_TOL``; outside it the bank under-covers and
    no quantitative claim is made.
    """

    mother: MotherWavelet
    j_max: int
    j_min: int
    n: int
    filters: Mapping[int, Spectrum]
    validated_band: tuple[int, int] | None

    @property
    def scales(self) -> range:
        return range(self.j_min, self.j_max + 1)


def _validated_band(
    mother: MotherWavelet, j_min: int, j_max: int, n: int
) -> tuple[int, int] | None:
    omegas = np.arange(1, n // 2, dtype=np.float64)
    sp, sm, kept = _octave_sums(
        mother, omegas, lambda j, w, p, m: (p, m, p + m if j_min <= j <= j_max else 0.0)
    )
    ok = np.abs(0.5 * (sp + sm) - 0.5 * kept) <= _COVERAGE_TOL
    if not np.any(ok):
        return None
    # widest contiguous run of covered integers; argmax takes the first of a tie
    edges = np.diff(np.concatenate(([0], ok.astype(np.int8), [0])))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    k = int(np.argmax(stops - starts))
    return int(omegas[starts[k]]), int(omegas[stops[k] - 1])


def build_bank(
    mother: MotherWavelet,
    j_max: int,
    n: int,
    j_min: int | None = None,
) -> FilterBank:
    """Sample the dilated mother on the grid for octaves j_min..j_max.

    ``j_min`` defaults to j_max - ceil(log2 n) + 1, the finest octave
    whose pass band still lies on the grid.  A bank whose complex128
    filters, 16 N bytes per octave, exceed the budget is refused first,
    and so is an N below 4, whose grid holds no frequency strictly between
    0 and N/2 to validate a band on.  So are octaves that float64 cannot
    scale by: j_min below -2^31, the least exponent ``np.ldexp`` takes, and
    a J whose top frequency 2^J * N/2 overflows.
    """
    if n < 4:
        raise ValueError(
            f"no frequency lies strictly between 0 and N/2 on N={n}: a bank needs N >= 4"
        )
    if j_min is None:
        j_min = j_max - math.ceil(math.log2(n)) + 1
    if j_min > j_max:
        raise ValueError(f"empty octave range [{j_min}, {j_max}]")
    _check_bytes(f"a bank of {j_max - j_min + 1} octaves on N={n}", 16 * n * (j_max - j_min + 1))
    # (N/2) * 2^J is finite while N/2 has at most 1024 - J bits
    if j_min < -(2**31) or j_max + int(n // 2).bit_length() > 1024:
        raise ValueError(
            f"J={j_max}, j_min={j_min} on N={n}: float64 cannot scale by these octaves "
            "(need j_min >= -2^31 and a finite top frequency 2^J * N/2)"
        )
    w = frequencies(n).astype(np.float64)
    filters = {
        j: Spectrum(mother(np.ldexp(w, j)).astype(np.complex128))
        for j in range(j_min, j_max + 1)
    }
    band = _validated_band(mother, j_min, j_max, n)
    return FilterBank(mother, j_max, j_min, n, filters, band)


# ---------------------------------------------------------------------------
# Condition checks.


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    margin: float
    witness_freq: float | None
    tolerance: float
    details: dict

    def to_payload(self) -> dict:
        return asdict(self)


def check_littlewood_paley(bank: FilterBank) -> ConditionReport:
    """Certify the symmetrized squared sums never exceed one.

    Evaluated at every grid magnitude |w| in 0..N/2; margin is
    1 - max(sum), so a tight bank reports exactly 0.0.
    """
    omegas = np.arange(0, bank.n // 2 + 1, dtype=np.float64)
    x = np.ldexp(omegas, np.array(bank.scales)[:, None])  # row j holds 2^j * w
    plus, minus = bank.mother.pair(x)
    # rows add in ascending j: the grid always has two or more columns
    total = np.sum(0.5 * (plus**2 + minus**2), axis=0)
    worst = int(np.argmax(total))
    margin = 1.0 - float(total[worst])
    return ConditionReport(
        condition="littlewood_paley",
        passed=margin >= -_LP_TOL,
        margin=margin,
        witness_freq=float(omegas[worst]),
        tolerance=_LP_TOL,
        details={"max_sum": float(total[worst]), "grid": f"0..{bank.n // 2}"},
    )


def check_asymmetry(bank: FilterBank) -> ConditionReport:
    """Certify positive frequencies dominate their mirrors.

    Two claims are combined: per octave, |psi_hat_j(-w)| never exceeds
    |psi_hat_j(w)| beyond ``_ASYMMETRY_TOL``; and at every checked w some octave
    dominates strictly.  The margin is min over w of the best per-octave
    amplitude gap, so an even profile reports exactly 0.0 and fails.

    Checked on the validated band, where the bank actually covers; with
    no validated band it falls back to the full positive grid.
    """
    if bank.validated_band is not None:
        lo, hi = bank.validated_band
    else:
        lo, hi = 1, bank.n // 2 - 1
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    x = np.ldexp(omegas, np.array(bank.scales)[:, None])
    plus, minus = bank.mother.pair(x)
    gaps = np.abs(plus) - np.abs(minus)
    worst_violation = min(0.0, float(gaps.min()))
    best = gaps.max(axis=0)
    idx = int(np.argmin(best))
    per_octave_ok = worst_violation >= -_ASYMMETRY_TOL
    margin = float(best[idx]) if per_octave_ok else worst_violation
    return ConditionReport(
        condition="asymmetry",
        passed=per_octave_ok and margin > 0.0,
        margin=margin,
        witness_freq=float(omegas[idx]),
        tolerance=_ASYMMETRY_TOL,
        details={
            "band": [int(lo), int(hi)],
            "per_octave_ok": per_octave_ok,
        },
    )


def estimate_vanishing_order(mother: MotherWavelet) -> ConditionReport:
    """Fit the decay order of |psi_hat| near zero.

    A least-squares line through (log w, log |psi_hat(w)|) on ``_ORDER_POINTS``
    geometric points of ``_ORDER_WINDOW`` estimates |psi_hat(w)| ~ w^(1 + eps);
    it passes when eps >= ``_ORDER_THRESHOLD``, or when the profile vanishes
    identically on the window (indicator-type mothers, flagged at construction).
    The report's margin is eps - ``_ORDER_THRESHOLD`` (inf for a profile zero on
    the window), and its ``details`` hold the fit.
    """
    x = np.geomspace(*_ORDER_WINDOW, _ORDER_POINTS)
    vals = np.abs(mother(x))
    zero = mother.zero_near_origin or not np.any(vals > 0.0)
    if zero:
        if np.any(vals > 0.0):
            raise ValueError(
                f"mother {mother.name!r} is flagged zero near the origin "
                "but has mass on the fit window"
            )
        slope, residual = math.inf, 0.0
    else:
        if np.any(vals == 0.0):
            raise ValueError("profile vanishes at isolated fit points; cannot fit order")
        design = np.column_stack([np.log(x), np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, np.log(vals), rcond=None)
        slope = float(coef[0])
        fitted = design @ coef
        residual = float(np.sqrt(np.mean((np.log(vals) - fitted) ** 2)))
    eps = slope - 1.0
    return ConditionReport(
        condition="vanishing_order",
        passed=eps >= _ORDER_THRESHOLD,
        margin=math.inf if zero else eps - _ORDER_THRESHOLD,
        witness_freq=None,
        tolerance=0.0,
        details={
            "slope": slope,
            "epsilon_hat": eps,
            "threshold": _ORDER_THRESHOLD,
            "fit_window": list(_ORDER_WINDOW),
            "n_points": _ORDER_POINTS,
            "residual": residual,
            "identically_zero": zero,
        },
    )


# ---------------------------------------------------------------------------
# Serialization.  A bank file records the recipe, not the samples.


def _recipe(bank: FilterBank) -> dict:
    return {
        "mother": {"name": bank.mother.name, "params": bank.mother.params},
        "J": bank.j_max,
        "j_min": bank.j_min,
        "N": bank.n,
    }


def save_bank(path: str | os.PathLike, bank: FilterBank) -> None:
    _write_json(path, _recipe(bank))


def _whole(value) -> int:
    """A size read from a bank or model file; int() would truncate 128.7 to 128."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise TypeError(f"sizes must be integers, got {value!r}")
    return int(value)


def load_bank(path: str | os.PathLike) -> FilterBank:
    with open(os.fspath(path)) as fh:
        payload = json.load(fh)
    try:
        mother_spec = payload["mother"]
        mother = make_mother(mother_spec["name"], **mother_spec.get("params", {}))
        j_max = _whole(payload["J"])
        n = _whole(payload["N"])
        j_min = payload.get("j_min")
        j_min = _whole(j_min) if j_min is not None else None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bank file {path}: {exc}") from None
    return build_bank(mother, j_max, n, j_min=j_min)
