"""Dyadic analytic filter banks and the conditions that certify them.

A bank is generated from a mother profile psi_hat by dyadic dilation,
psi_hat_j(w) = psi_hat(2^j w), with larger j meaning coarser scale.  A
bank keeps the octaves j in [j_min, j_max]; by default j_min reaches down
to the finest octave that still fits on the length-N grid.

Three conditions are checked here:

* the symmetrized squared sums stay below one (no energy inflation),
* positive frequencies strictly dominate their mirrors (analyticity),
* |psi_hat| decays at better-than-linear order near zero.

The first two are grid evaluations that report a signed margin and a
witness frequency; the third reads the order the mother's closed form
guarantees.  Downstream bounds consume the margins, so the checks never
round a failure up to a pass.

Every converged dyadic sum over all integer j, here and in ``decay``, is
added by ``_octave_sums`` under one rule: the terms are added in ascending
j, and only the in-window terms, those with 2^j w in ``X_WINDOW``, add
anything; every other term is an exact 0.0, which changes no bit.  The
window depends on 2^j w alone, so doubling w shifts the in-window terms by
one octave and every such sum is dyadically homogeneous bit for bit.  That
is what makes ``decay``'s doubling step exact: the sum over j <= J at 2w
is the sum at w plus one term, the one at j = J, added last.

``_octave_sums`` evaluates a block of octaves, up to ``_OCTAVE_BLOCK``
(octave, frequency) entries, with one call of the mother, whose arguments
are clipped to the window: on the short integer grids of small banks the
cost of a numpy call, not its arithmetic, is what a per-octave loop pays.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import BankConditionError, BudgetExceededError
from .signals import Spectrum, _read_json, _real, _whole, _write_json, frequencies

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
_MASS_FLOOR = 1e-12  # a retained octave sum at most this is a hole, left out of the validated band
_ASYMMETRY_TOL = 1e-12  # largest excess of a mirror amplitude over its partner
_LP_TOL = 1e-9  # largest excess of a symmetrized squared octave sum over one
_ORDER_THRESHOLD = 0.05


def _check_bytes(what: str, nbytes: int) -> None:
    """Refuse ``what``, before it is allocated, when its ``nbytes`` exceed the budget."""
    if nbytes > _BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} needs {nbytes:,} bytes at once, over the budget of {_BUDGET_BYTES:,}",
            estimated_bytes=nbytes,
        )


def _morlet_kappa(center: float, width: float) -> float:
    """Zero-mean correction amplitude of a Morlet bump inside the window.

    Only |center| enters it, and it and the width are taken as Python
    floats once the width's sign test has passed: on NumPy scalars the
    overflows refused below would warn before their refusal.
    """
    if not width > 0:
        raise ValueError(f"Morlet width must be positive, got {width:g}")
    offset, width = float(abs(center)), float(width)
    if not offset + _BUMP_REACH * width <= X_WINDOW[1]:
        raise ValueError(
            f"Morlet bump at {center:g} of width {width:g} reaches past "
            f"{X_WINDOW[1]:g}, where octave sums are truncated; need "
            f"|center| + {_BUMP_REACH:.2f} * width <= {X_WINDOW[1]:g}"
        )
    # the bump's exponent (w - center)^2 / (2 width^2) is largest on the window at
    # |w - center| = 16 + |center|; where it is finite, so are the correction's
    # center * w / width^2, at most half of it, and the Gaussian's w^2 / (2 width^2)
    square = 2.0 * width**2
    if square == 0.0 or not math.isfinite((X_WINDOW[1] + offset) ** 2 / square):
        raise ValueError(
            f"Morlet width {width:g} is too narrow for float64: "
            f"({X_WINDOW[1]:g} + |center|)^2 / (2 width^2) overflows"
        )
    return math.exp(-(offset**2) / (2.0 * width**2))


@dataclass(frozen=True)
class MotherWavelet:
    """Frequency profile of the generating wavelet.

    ``pair`` maps a float64 array of frequencies w to the real amplitudes
    (psi_hat(w), psi_hat(-w)), vectorized: every bank condition reads the
    mother at +2^j w and -2^j w together, so that pair is its one
    definition.  ``order`` is the vanishing order at zero that the
    profile's closed form guarantees, |psi_hat(w)| = O(|w|^order), and
    ``inf`` for a profile that is 0 on a neighbourhood of zero.
    """

    name: str
    params: dict
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    order: float

    def __call__(self, w) -> np.ndarray:
        return np.asarray(self.pair(np.asarray(w, dtype=np.float64))[0], dtype=np.float64)


def _morlet(name: str, center: float, width: float, order: float) -> MotherWavelet:
    """The Morlet bump at ``center`` less its correction kappa g (1 + t), in the terms of ``morlet_mother``.

    At order 1 t is 0.0, the zero-mean correction alone: kappa * (1.0 + 0.0)
    is kappa exactly.  A bump that reaches past ``X_WINDOW`` is refused.
    """
    kappa = _morlet_kappa(center, width)

    def pair(w):
        # the Gaussian at zero is even, so both sides share it; at -w the bump's square
        # (-w - center)^2 is (w + center)^2 and 1 + center * (-w) / width^2 is 1 - t,
        # bit for bit, as float negation is exact
        gauss = np.exp(-(w**2) / (2.0 * width**2))
        t = center * w / width**2 if order == 2.0 else 0.0
        plus = np.exp(-((w - center) ** 2) / (2.0 * width**2)) - kappa * (1.0 + t) * gauss
        minus = np.exp(-((w + center) ** 2) / (2.0 * width**2)) - kappa * (1.0 - t) * gauss
        return plus, minus

    return MotherWavelet(name, {"center": center, "width": width}, pair, order=order)


def morlet_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Analytic Morlet profile with a double zero at the origin.

    The Gaussian bump at ``center`` is corrected by a Gaussian at zero.
    A plain amplitude correction only cancels the value at the origin and
    leaves a linear term; multiplying the correction by
    (1 + center*w/width^2) also cancels the derivative.  With
    t = center w / width^2, kappa = exp(-center^2 / (2 width^2)) and
    g = exp(-w^2 / (2 width^2)) the profile is kappa g (e^t - 1 - t), of
    order 2.  A bump that reaches past ``X_WINDOW`` is refused.
    """
    return _morlet("morlet", center, width, order=2.0)


def morlet_first_order_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Morlet with only the zero-mean correction.

    Kept as the canonical near-linear profile: in the terms of
    ``morlet_mother`` it is kappa g (e^t - 1), of order 1, so the
    vanishing-order check rejects it.  Useful in tests and as a contrast
    case; the decay machinery must refuse it.
    """
    return _morlet("morlet_first_order", center, width, order=1.0)


def even_morlet_mother(center: float = 3.0, width: float = 1.0) -> MotherWavelet:
    """Symmetrized Morlet, psi_hat(w) = psi_hat(-w).

    In the terms of ``morlet_mother`` it is sqrt(2) kappa g (cosh t - 1),
    of order 2.  Satisfies the sum and order conditions but carries no
    analytic preference between +w and -w, so the strict-dominance check
    fails with margin zero.
    """
    base = morlet_mother(center, width)
    root_half = 1.0 / math.sqrt(2.0)

    def pair(w):
        # (minus + plus) * root_half, psi_hat(-w), has the same bits: float addition commutes
        plus, minus = base.pair(w)
        even = (plus + minus) * root_half
        return even, even

    return MotherWavelet("even_morlet", {"center": center, "width": width}, pair, order=2.0)


def bandpass_mother(lo: float, hi: float, amplitude: float = math.sqrt(2.0)) -> MotherWavelet:
    """Indicator of the half-open band (lo, hi] at a fixed amplitude.

    Generalizes the octave indicator; narrow bands make legal but nearly
    useless banks whose decay constants collapse, which is exactly what
    the degenerate-octave guard in the constants computation detects.
    The profile is 0 on (-lo, lo), so its order is infinite.
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

    return MotherWavelet("bandpass", {"lo": lo, "hi": hi, "amplitude": amplitude}, pair, order=math.inf)


def shannon_mother() -> MotherWavelet:
    """Indicator of the octave (1, 2], scaled so the octave sums are 1; 0 on (-1, 1), of order inf."""
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
        return builder(**{key: _real(key, value) for key, value in params.items()})
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad parameters for mother {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Dyadic sums over all integer scales, truncated to the converged window.


# (octave, frequency) entries one mother call of ``_octave_sums`` takes at most
_OCTAVE_BLOCK = 1 << 14


def _window_squares(mother: MotherWavelet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|psi_hat(+-x)|^2 where x lies in ``X_WINDOW`` and exactly 0.0 elsewhere.

    The mother sees x clipped to the window, so never an argument outside
    it.  ``x`` ascends along each axis, so its first and last entries bound
    it: a block wholly inside the window, or an empty one, is neither
    clipped nor masked.
    """
    if x.size == 0 or x.flat[0] >= X_WINDOW[0] and x.flat[-1] <= X_WINDOW[1]:
        plus, minus = mother.pair(x)
        return plus**2, minus**2
    inside = (x >= X_WINDOW[0]) & (x <= X_WINDOW[1])
    plus, minus = mother.pair(np.clip(x, *X_WINDOW))
    return np.where(inside, plus**2, 0.0), np.where(inside, minus**2, 0.0)


def _octave_sums(mother: MotherWavelet, omegas: np.ndarray, terms, j_max: int | None = None):
    """One sum per array ``terms(j, w, p, m)`` returns, over the octaves j that reach ``omegas``.

    ``omegas`` must be nonempty, strictly positive and ascending (ties
    allowed), else ``ValueError``.  The octaves from the lowest that reaches
    ``omegas`` to the highest, capped at ``j_max``, are evaluated in blocks
    of at most ``_OCTAVE_BLOCK`` (octave, frequency) entries, one mother call
    each: ``j`` is the block's column of octaves, ``w`` its row of
    frequencies and p, m = ``_window_squares`` of 2^j w, 0.0 outside the
    window, so each term must vanish where p and m do.  Each sum adds its
    rows one octave at a time, in ascending j; a frequency no octave
    reaches keeps 0.0.  ``terms`` is called once on zero octaves first, to
    count the sums.
    """
    if omegas.size == 0 or not omegas[0] > 0.0 or not np.all(omegas[1:] >= omegas[:-1]):
        raise ValueError("frequencies must be nonempty, strictly positive and ascending")
    empty = np.zeros((0, omegas.size))
    sums = [np.zeros(omegas.shape) for _ in terms(np.zeros((0, 1), np.intc), omegas, empty, empty)]
    width = min(omegas.size, _OCTAVE_BLOCK)
    for lo in range(0, omegas.size, width):
        w = omegas[lo : lo + width]
        j_lo = int(math.ceil(math.log2(X_WINDOW[0] / float(w[-1]))))
        j_hi = int(math.floor(math.log2(X_WINDOW[1] / float(w[0]))))
        if j_max is not None:
            j_hi = min(j_hi, j_max)
        # C int exponents: np.ldexp takes int64 ones on a far slower loop
        js = np.arange(j_lo, j_hi + 1, dtype=np.intc)[:, None]
        parts = [total[lo : lo + width] for total in sums]
        step = _OCTAVE_BLOCK // width
        for first in range(0, len(js), step):
            j = js[first : first + step]
            p, m = _window_squares(mother, np.ldexp(w, j))
            for part, term in zip(parts, terms(j, w, p, m)):
                for row in term:
                    part += row
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
    sum to within ``_COVERAGE_TOL`` and carry a symmetrized squared sum
    above ``_MASS_FLOOR``; outside it the bank under-covers or has a hole,
    a frequency no retained octave reaches, and no quantitative claim is
    made.
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
    """``FilterBank.validated_band`` of the octaves j_min..j_max on N=n.

    What the retained octaves leave out of the full dyadic sum at w is the
    sum of the octaves outside j_min..j_max, and what they carry is
    0.5 * (kept_p + kept_m), their sums of |psi_hat(2^j w)|^2 and of
    |psi_hat(-2^j w)|^2; all three are taken in one pass.  kept_p and kept_m
    add the terms of the two sums of S(w) = (1/2) sum_j |psi_hat(2^j w)|^2 +
    |psi_hat(-2^j w)|^2 in the same ascending order, with the octaves outside
    j_min..j_max replaced by 0.0.  Float addition of nonnegative terms is
    monotone, so S(w) >= 0.5 * (kept_p + kept_m) > ``_MASS_FLOOR`` at every
    band integer, and, the sums being dyadically homogeneous bit for bit, at
    the integer's octave images too: no hole lies in a validated band.
    """
    omegas = np.arange(1, n // 2, dtype=np.float64)

    def terms(j, w, p, m):
        retained = (j >= j_min) & (j <= j_max)
        return np.where(retained, 0.0, p + m), np.where(retained, p, 0.0), np.where(retained, m, 0.0)

    missed, kept_p, kept_m = _octave_sums(mother, omegas, terms)
    ok = (0.5 * missed <= _COVERAGE_TOL) & (0.5 * (kept_p + kept_m) > _MASS_FLOOR)
    if not np.any(ok):
        return None
    # widest contiguous run of covered integers with mass; argmax takes the first of a tie
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
    a J whose top frequency 2^J * N/2 overflows when squared, as the
    mothers and octave sums square it.  So is a mother whose profile
    overflows float64 on the arguments the bank gives it, such as a Morlet
    width too narrow for 2^J * N/2.
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
    # ((N/2) * 2^J)^2 is finite while N/2 has at most 512 - J bits
    if j_min < -(2**31) or j_max + int(n // 2).bit_length() > 512:
        raise ValueError(
            f"J={j_max}, j_min={j_min} on N={n}: float64 cannot scale by these octaves "
            "(need j_min >= -2^31 and a top frequency 2^J * N/2 whose square is finite)"
        )
    w = frequencies(n).astype(np.float64)
    # the filters and the band's octave sums give the mother the largest arguments the bank
    # and its checks ever give it, 2^J * N/2 and X_WINDOW[1], so an overflow raises here, and
    # the bank is refused with one message instead of warnings in every check after
    try:
        with np.errstate(over="raise", invalid="raise"):
            filters = {
                j: Spectrum(mother(np.ldexp(w, j)).astype(np.complex128))
                for j in range(j_min, j_max + 1)
            }
            band = _validated_band(mother, j_min, j_max, n)
    except FloatingPointError:
        raise ValueError(
            f"mother {mother.name!r} with {mother.params} overflows float64 in a bank of J={j_max} on N={n}"
        ) from None
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


def _refuse_inflated(bank: FilterBank) -> ConditionReport:
    """``check_littlewood_paley``'s report, raised as ``BankConditionError`` unless it passed."""
    lp = check_littlewood_paley(bank)
    if not lp.passed:
        raise BankConditionError(
            f"squared sums exceed one (margin {lp.margin:.3e} at w = {lp.witness_freq})"
        )
    return lp


def check_asymmetry(bank: FilterBank) -> ConditionReport:
    """Certify positive frequencies dominate their mirrors.

    Two claims are combined: per octave, |psi_hat_j(-w)| never exceeds
    |psi_hat_j(w)| beyond ``_ASYMMETRY_TOL``; and at every checked w some octave
    dominates strictly.  The margin is min over w of the best per-octave
    amplitude gap, so an even profile reports exactly 0.0 and fails.

    Checked on the validated band, where the bank actually covers and
    carries octave mass; with no validated band it falls back to the full
    positive grid.
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
    """The order condition |psi_hat(w)| = O(|w|^(1 + eps)) at zero, read from ``mother.order``.

    The order is the one the mother's closed form guarantees, so
    eps = order - 1 is exact and the profile is never evaluated.  The check
    passes when eps >= ``_ORDER_THRESHOLD``, with margin
    eps - ``_ORDER_THRESHOLD``: inf for a profile that is 0 near zero.
    """
    eps = mother.order - 1.0
    return ConditionReport(
        condition="vanishing_order",
        passed=eps >= _ORDER_THRESHOLD,
        margin=eps - _ORDER_THRESHOLD,
        witness_freq=None,
        tolerance=0.0,
        details={"order": mother.order, "epsilon_hat": eps, "threshold": _ORDER_THRESHOLD},
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


def _bank_args(payload) -> tuple:
    """``build_bank``'s mother, J, N and j_min, read from a bank file's payload."""
    mother = make_mother(payload["mother"]["name"], **payload["mother"].get("params", {}))
    j_min = payload.get("j_min")
    return mother, _whole(payload["J"]), _whole(payload["N"]), None if j_min is None else _whole(j_min)


def load_bank(path: str | os.PathLike) -> FilterBank:
    """The bank a ``save_bank`` recipe file names, built by ``build_bank``.

    The file is read, and the bank built, by ``signals._read_json``, so text
    that is not JSON, a missing key, a value of the wrong type, a size that is
    not an integer and every refusal of ``make_mother`` and ``build_bank`` are
    reported as "bank file <path>: <reason>".  A bank over the memory budget
    keeps its ``BudgetExceededError``.
    """
    return _read_json(path, "bank", lambda payload: build_bank(*_bank_args(payload)))
