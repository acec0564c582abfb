"""Certified decay rates for scattering layer energies.

The modulus of a band-pass convolution moves energy toward low
frequencies.  How fast it moves is governed by two frequency functionals
built from the converged dyadic sums of the mother profile:

    S(w)  = (1/2) sum_j |psi_hat(2^j w)|^2 + |psi_hat(-2^j w)|^2
    F1(w) = sum_j (|psi_hat(2^j w)|^2 - |psi_hat(-2^j w)|^2) * 2^-j / (2 S(w))
    F2(w) = sum_j (|psi_hat(2^j w)|^2 + |psi_hat(-2^j w)|^2) * 2^-2j / (2 S(w))

Both are exactly homogeneous across octaves (F1 doubles, F2 quadruples),
so their envelopes over one octave give global constants

    c = inf F1(w)/w,   C = sup F2(w)/w^2,   a = 1 / sqrt(1 - c^2/C),

and after an admissible Gaussian width x_init is found, the layer-n
energy of a real band-limited signal obeys

    ||U_n f||^2 <= sum_w |f_hat(w)|^2 (1 - exp(-2 (w / (r a^n))^2)),

with r = x_init / a^2.  Everything here is computed on grids with
explicit margins; no step trusts a claimed inequality without checking
it at the grid points it will later be used on.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BankConditionError,
    CoverageHoleError,
    DegenerateOctaveError,
    VanishingOrderError,
    WeakAsymmetryError,
)
from .filterbank import (
    ConditionReport,
    FilterBank,
    _octave_slice,
    _octave_sums,
    check_littlewood_paley,
    estimate_vanishing_order,
)
from .scattering import layer_energy_profile
from .signals import Signal, convolve, dft, frequencies, modulus

__all__ = [
    "FreqFunctional",
    "DecayConstants",
    "InitLowpass",
    "DecayRow",
    "Lemma1Report",
    "compute_S",
    "compute_F1",
    "compute_F2",
    "compute_constants",
    "initialize_lowpass",
    "initialize_x",
    "lemma1_check",
    "lemma2_envelope_check",
    "verify_decay",
]

# sums smaller than this are holes, not small denominators
_MASS_FLOOR = 1e-12
_X_TOL = 1e-9  # slack allowed to the admissibility of the initial width x_init
_ENVELOPE_TOL = 1e-9  # slack allowed to the one-step contraction envelope
_SLACK_TOL = 1e-8  # excess of a layer's energy over its bound still reported as OK


def _chi_sq(w: np.ndarray, x: float) -> np.ndarray:
    """Squared Gaussian low-pass profile |chi_hat_x(w)|^2."""
    return np.exp(-2.0 * (w / x) ** 2)


@dataclass(frozen=True)
class FreqFunctional:
    """One of the dyadic-sum functionals sampled on integer frequencies."""

    name: str
    omegas: np.ndarray
    values: np.ndarray
    band: tuple[int, int]


def _band_or_raise(bank: FilterBank) -> tuple[int, int]:
    if bank.validated_band is None:
        raise CoverageHoleError(
            "bank has no validated band: the retained octaves nowhere "
            "reproduce the full dyadic sum"
        )
    return bank.validated_band


def _functional_terms(bank: FilterBank, omegas: np.ndarray):
    """Converged S, F1 and F2 numerators at ascending, strictly positive omegas."""

    def terms(j, w, p, m):
        w1 = math.ldexp(1.0, -j)
        return p, m, (p - m) * w1, (p + m) * w1 * w1

    sp, sm, n1, n2 = _octave_sums(bank.mother, omegas, terms)
    return 0.5 * (sp + sm), 0.5 * n1, 0.5 * n2


def _functional_on_band(bank: FilterBank, which: str) -> FreqFunctional:
    lo, hi = _band_or_raise(bank)
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    s, n1, n2 = _functional_terms(bank, omegas)
    holes = np.flatnonzero(s <= _MASS_FLOOR)
    if holes.size:
        raise CoverageHoleError(
            f"dyadic sum vanishes at frequency {int(omegas[holes[0]])} "
            f"inside the validated band [{lo}, {hi}]"
        )
    values = {"S": s, "F1": n1 / s, "F2": n2 / s}[which]
    return FreqFunctional(which, omegas.astype(np.int64), values, (lo, hi))


def compute_S(bank: FilterBank) -> FreqFunctional:
    """Symmetrized octave mass on the validated band."""
    return _functional_on_band(bank, "S")


def compute_F1(bank: FilterBank) -> FreqFunctional:
    """First-moment functional; F1(2w) = 2 F1(w) bitwise."""
    return _functional_on_band(bank, "F1")


def compute_F2(bank: FilterBank) -> FreqFunctional:
    """Second-moment functional; F2(2w) = 4 F2(w) bitwise."""
    return _functional_on_band(bank, "F2")


# ---------------------------------------------------------------------------
# Initial low-pass construction.


@dataclass(frozen=True)
class InitLowpass:
    """Window phi_hat whose squared profile complements the octave sums.

    The autocorrelation of a raised-cosine bump, evaluated in closed form
    and rescaled by M so that |phi_hat|^2 + sum of octave profiles stays
    below one everywhere.  ``phi_grid``/``phi_values`` sample the unscaled
    autocorrelation on its support [-1/2, 1/2]; evaluation at arbitrary
    frequencies interpolates that table after the M-rescale and is exactly
    zero outside.
    """

    m_scale: float
    alpha_tilde: float
    curvature_sup: float
    phi_grid: np.ndarray
    phi_values: np.ndarray

    def phi_hat(self, w) -> np.ndarray:
        u = self.m_scale * np.asarray(w, dtype=np.float64)
        return np.interp(u, self.phi_grid, self.phi_values, left=0.0, right=0.0)


def _lp_up_to_coarsest(bank: FilterBank, omegas: np.ndarray) -> np.ndarray:
    """Converged symmetrized sum over all octaves j <= j_max (no floor).

    ``omegas`` must be ascending and strictly positive.  The octaves above
    j_max are never evaluated: they would be the last, zeroed rows of an
    in-order sum, which change no bit.
    """
    (out,) = _octave_sums(bank.mother, omegas, lambda j, w, p, m: (p + m,), j_max=bank.j_max)
    return 0.5 * out


# grid intervals of the window table on [0, 1/2], and the index of u = 0; the
# table has twice as many on its support [-1/2, 1/2]
_WINDOW_POINTS = 1 << 14


@functools.cache
def _raised_cosine_window() -> tuple[np.ndarray, np.ndarray, float]:
    """Steps 1-3 of ``initialize_lowpass``: the grid u, phi0_hat on it and alpha_tilde.

    None of it depends on the bank, so it is built on first use and shared
    by every window in the process; both arrays are read-only.
    """
    u = np.linspace(-0.5, 0.5, 2 * _WINDOW_POINTS + 1)
    a = np.abs(u)
    t = 4.0 * np.pi * a
    phi0 = ((1.0 - 2.0 * a) * (2.0 + np.cos(t)) + 3.0 / (2.0 * np.pi) * np.sin(t)) / 3.0
    if float(np.max(phi0)) > 1.0 + 1e-12 or abs(float(phi0[_WINDOW_POINTS]) - 1.0) != 0.0:
        raise BankConditionError("window autocorrelation failed normalization checks")

    inner = u != 0.0
    alpha_tilde = float(np.min((1.0 - phi0[inner] ** 2) / u[inner] ** 2))
    u.flags.writeable = False
    phi0.flags.writeable = False
    return u, phi0, alpha_tilde


# log-spaced points of the curvature grid's base octave [2^-8, 2^-7), besides its edge point
_OCTAVE_POINTS = 1334


def _curvature_sums(bank: FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """Step 4's ascending grid on [2^-8, N/2 (1 + 1e-9)] and ``_lp_up_to_coarsest`` on it, bit for bit.

    The grid has one row per octave [2^k, 2^(k+1)) from k = -8 to log2(N/2):
    the base row is ``_OCTAVE_POINTS`` log-spaced points of [2^-8, 2^-7) plus
    the edge point 2^-8 (1 + 1e-9), and ``np.ldexp`` copies it exactly, so
    each row is the one below it doubled, point for point.  The last row
    stops at its edge pair N/2, N/2 (1 + 1e-9): each dyadic edge 2^k comes
    with a point just above it, where indicator-type profiles jump.

    The sum over j <= j_max at 2w has the terms of the sum at w, in the same
    ascending order, and then one more: the octave j_max term at 2w, if
    2^j_max (2w) lies in ``X_WINDOW``.  So each octave row is the row below
    it plus that term, the last addition the direct sum makes, and the rows
    take the bits ``_octave_sums`` gives on the flat grid.  Only the base row
    is summed over all octaves.
    """
    base = np.geomspace(2.0**-8, 2.0**-7, _OCTAVE_POINTS, endpoint=False)
    base = np.insert(base, 1, 2.0**-8 * (1.0 + 1e-9))
    # C int exponents: np.ldexp takes int64 ones on a far slower loop
    rows = np.ldexp(base, np.arange((bank.n // 2).bit_length() + 8, dtype=np.intc)[:, None])
    sums = np.empty(rows.shape)
    (sums[0],) = _octave_sums(bank.mother, rows[0], lambda j, w, p, m: (p + m,), j_max=bank.j_max)
    for k in range(1, len(rows)):
        sums[k] = sums[k - 1]
        hit = _octave_slice(bank.mother, rows[k], bank.j_max)
        if hit is not None:
            cols, p, m = hit
            sums[k, cols] += p + m
    stop = rows.size - rows.shape[1] + 2
    return rows.ravel()[:stop], 0.5 * sums.ravel()[:stop]


def initialize_lowpass(bank: FilterBank) -> InitLowpass:
    """Construct the initial window and certify its curvature budget.

    Steps, each with its own grid check:

    1. raised cosine gamma_hat(xi) = cos^2(2 pi xi) on [-1/4, 1/4];
    2. phi0_hat = gamma_hat * gamma_hat / ||gamma_hat||^2, its
       autocorrelation normalized to phi0_hat(0) = 1, in closed form
           phi0_hat(u) = [(1 - 2|u|)(2 + cos 4 pi u) + (3 / (2 pi)) sin 4 pi |u|] / 3
       on [-1/2, 1/2], evaluated on a grid of step 2^-15 and checked to
       be exactly 1 at u = 0 and at most 1;
    3. alpha_tilde = min over the support of (1 - phi0_hat^2) / u^2,
       the worst quadratic headroom of the window;
    4. curvature_sup = sup over the positive reals of the octave sums
       for j <= j_max divided by w^2, taken on a grid closed under
       doubling: one log-spaced octave from 2^-8, with a point just above
       its edge, where indicator-type profiles jump and an integer grid
       badly under-samples the sup, copied exactly to every octave up to
       N/2.  The sums on one octave are those on the octave below plus the
       single term at j_max, so past the first octave each grid point
       costs one mother evaluation, not one per octave;
    5. m_scale = sqrt(curvature_sup / alpha_tilde), inflated by 1e-6 so
       the rescaled window hides strictly inside the uncovered zone.

    Steps 1-3 do not depend on the bank: they run once per process, and
    every returned window shares the same read-only ``phi_grid`` and
    ``phi_values`` arrays.

    The combined bound |phi_hat|^2 + octave sums <= 1 is then verified on
    both the continuum grid and the integer grid; a violation means the
    bank is not usable with this construction.
    """
    return _lowpass_and_integer_sums(bank)[0]


def _lowpass_and_integer_sums(bank: FilterBank) -> tuple[InitLowpass, np.ndarray]:
    """``initialize_lowpass`` plus the octave sums for j <= j_max at the integers 1..N/2."""
    order = estimate_vanishing_order(bank.mother)
    if not order.passed:
        raise VanishingOrderError(
            "cannot build the initial window: near-zero decay order "
            f"{order.details['epsilon_hat']:.4f} is below {order.details['threshold']}"
        )
    u, phi0, alpha_tilde = _raised_cosine_window()

    half = bank.n // 2
    grid, lp_grid = _curvature_sums(bank)
    curvature_sup = float(np.max(lp_grid / grid**2))

    m_scale = math.sqrt(curvature_sup / alpha_tilde) * (1.0 + 1e-6)
    init = InitLowpass(
        m_scale=m_scale,
        alpha_tilde=alpha_tilde,
        curvature_sup=curvature_sup,
        phi_grid=u,
        phi_values=phi0,
    )

    combined = init.phi_hat(grid) ** 2 + lp_grid
    ints = np.arange(1, half + 1, dtype=np.float64)
    lp_ints = _lp_up_to_coarsest(bank, ints)
    combined_int = init.phi_hat(ints) ** 2 + lp_ints
    worst = max(float(np.max(combined)), float(np.max(combined_int)))
    if worst > 1.0 + 1e-9:
        raise BankConditionError(
            f"initial window violates the combined bound: max {worst:.12f}"
        )
    return init, lp_ints


def _smoothed_window_sq(init: InitLowpass, omegas: np.ndarray) -> np.ndarray:
    """(|phi_hat|^2 * g)(w) for the unit Gaussian weight g.

    The integrand vanishes outside phi_hat's support, so the quadrature
    runs over exactly that interval on the construction's fine grid, one
    frequency at a time, in a row of the support's size.
    """
    support = init.phi_grid / init.m_scale
    values = init.phi_values**2
    dx = np.diff(support)
    out = np.zeros(omegas.shape)
    # exp(-gap^2) is exactly 0.0 in float64 once |gap| > 27.3 (gap^2 > 745.29),
    # and exp is far slower where it underflows: it runs only within 27.3 of w,
    # and the rest of the row keeps the 0.0 exp would give there
    starts = np.searchsorted(support, omegas - 27.3, "left")
    stops = np.searchsorted(support, omegas + 27.3, "right")
    for i in np.flatnonzero(starts < stops):
        near = slice(starts[i], stops[i])
        y = np.zeros(support.shape)
        y[near] = values[near] * (np.exp(-((omegas[i] - support[near]) ** 2)) / math.sqrt(math.pi))
        # numpy's trapezoid arithmetic on the full-length row, so the pairwise sum sees the same array
        out[i] = np.sum(dx * (y[1:] + y[:-1]) / 2.0)
    return out


def _window_reaches(init: InitLowpass, omegas: np.ndarray) -> np.ndarray:
    """Where ``1.0 - _smoothed_window_sq(init, omegas)`` can differ from 1.0.

    phi_hat^2 <= 1 on its support of length L = 1/m_scale, [-L/2, L/2], and
    zero outside, so with gap = |w| - L/2 > 0 every integrand value is at most
    exp(-gap^2) / sqrt(pi) and the quadrature, whose weights add up to L, at
    most L exp(-gap^2) / sqrt(pi).  Twice that covers the rounding and the
    1e-12 by which the window's normalization check lets phi_hat pass 1.  In
    float64 1.0 - v == 1.0 once v <= 2^-54, which that doubled bound
    guarantees when gap^2 >= ln(2 L / sqrt(pi)) + 54 ln 2.  Only the other
    rows are True.
    """
    length = 1.0 / init.m_scale
    gap = np.abs(omegas) - length / 2.0
    reach_sq = math.log(2.0 * length / math.sqrt(math.pi)) + 54.0 * math.log(2.0)
    return (gap <= 0.0) | (gap**2 < reach_sq)


def initialize_x(bank: FilterBank) -> float:
    """Largest admissible Gaussian width on the eighth-octave search grid.

    The admissibility condition compares the retrenchment envelope

        F(w) = (1 - (|phi_hat|^2 * g)(w)) * (octave sums for j <= j_max)

    against 1 - |chi_hat_x(w)|^2 on the validated integer band.  F does
    not depend on x and the right side grows as x shrinks, so the search
    walks x = 2^(m/8) downward from 2^8 and stops at the first width that
    clears the condition everywhere.
    """
    _band_or_raise(bank)
    return _admissible_width(bank)[0]


def _admissible_width(bank: FilterBank) -> tuple[float, float]:
    """The search of ``initialize_x`` plus its slack min(1 - |chi_hat_x|^2 - F).

    The envelope slices its band lo..hi from the window construction's
    octave sums at the integers 1..N/2: a column's sum does not depend on
    the rest of its grid.  The window is smoothed only on the rows where
    ``_window_reaches``: every other row keeps 1.0 - 0.0, the bits 1.0 - v has.
    """
    init, lp_ints = _lowpass_and_integer_sums(bank)
    lo, hi = bank.validated_band
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    window = np.zeros(omegas.shape)
    near = _window_reaches(init, omegas)
    window[near] = _smoothed_window_sq(init, omegas[near])
    envelope = (1.0 - window) * lp_ints[lo - 1 : hi]
    for m in range(64, -65, -1):
        x = 2.0 ** (m / 8.0)
        if np.all(envelope <= 1.0 - _chi_sq(omegas, x) + _X_TOL):
            return x, float(np.min(1.0 - _chi_sq(omegas, x) - envelope))
    raise BankConditionError(
        "no admissible Gaussian width in [2^-8, 2^8]: the envelope "
        "exceeds the modulation budget at every candidate"
    )


# ---------------------------------------------------------------------------
# Decay constants.


@dataclass(frozen=True)
class DecayConstants:
    """Certified rates for one bank.

    ``delta`` = c/C is the guaranteed downward frequency drift per layer,
    ``a`` the per-layer width contraction, ``x_init`` the admissible
    starting width and ``r`` = x_init / a^2 the effective width in the
    layer-n energy bound.  ``margins`` records the slack of every grid
    inequality the computation relied on.
    """

    c: float
    C: float
    delta: float
    a: float
    x_init: float
    r: float
    band: tuple[int, int]
    margins: dict

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["validated_band"] = list(payload.pop("band"))
        return payload


def _refuse_inflated(lp: ConditionReport) -> None:
    """Refuse a bank whose squared octave sums exceed one, by its Littlewood-Paley report."""
    if not lp.passed:
        raise BankConditionError(
            f"squared sums exceed one (margin {lp.margin:.3e} at w = {lp.witness_freq})"
        )


def _octave_samples(bank: FilterBank) -> np.ndarray:
    """Sampling set in the reference octave (1, 2].

    Dense geometric grid, a point hugging the open left edge where
    second-moment envelopes of indicator profiles peak, and the exact
    octave image g / 2^(ceil(log2 g) - 1) of every validated integer
    frequency, so banks whose mass sits on isolated frequencies are
    sampled where that mass actually lives.
    """
    lo, hi = _band_or_raise(bank)
    dense = 2.0 ** np.linspace(0.0, 1.0, 4097)[1:]
    ints = np.arange(lo, hi + 1, dtype=np.float64)
    images = ints / 2.0 ** (np.ceil(np.log2(ints)) - 1.0)
    return np.unique(np.concatenate([dense, [1.0 + 1e-12], images]))


def compute_constants(bank: FilterBank) -> DecayConstants:
    """Derive the decay constants, refusing banks that cannot support them.

    Preconditions are checked in order of how informative the failure is:
    missing coverage, an inflated squared sum, too little decay order near
    zero, no strict analytic preference (c <= 0), and octave mass so
    concentrated that c^2 reaches C and the contraction disappears.
    """
    band = _band_or_raise(bank)

    lp = check_littlewood_paley(bank)
    _refuse_inflated(lp)
    order = estimate_vanishing_order(bank.mother)
    if not order.passed:
        raise VanishingOrderError(
            f"near-zero decay order {order.details['epsilon_hat']:.4f} "
            f"below {order.details['threshold']}"
        )

    x = _octave_samples(bank)
    s, n1, n2 = _functional_terms(bank, x)
    usable = s > _MASS_FLOOR
    if not np.any(usable):
        raise CoverageHoleError("no octave mass anywhere on the sampling set")
    x = x[usable]
    f1 = n1[usable] / s[usable]
    f2 = n2[usable] / s[usable]

    c = float(np.min(f1 / x))
    big_c = float(np.max(f2 / x**2))
    if c <= 1e-15:
        raise WeakAsymmetryError(
            f"first-moment rate c = {c:.3e} is not positive; the bank has "
            "no strict analytic preference and the drift argument collapses"
        )
    if c * c >= big_c * (1.0 - 1e-12):
        raise DegenerateOctaveError(
            f"degenerate octave: c^2 = {c * c:.12e} reaches C = {big_c:.12e}, "
            "so the width contraction a is unbounded"
        )

    delta = c / big_c
    a = 1.0 / math.sqrt(1.0 - c * c / big_c)
    x_init, x_margin = _admissible_width(bank)
    r = x_init / a**2

    margins = {
        "littlewood_paley": lp.margin,
        "vanishing_order_epsilon": order.details["epsilon_hat"],
        "octave_gap": big_c - c * c,
        "x_condition": x_margin,
    }
    return DecayConstants(
        c=c,
        C=big_c,
        delta=delta,
        a=a,
        x_init=x_init,
        r=r,
        band=band,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# Lemma-level checks.


@dataclass(frozen=True)
class Lemma1Report:
    """Positivity of one smoothed-modulus case against its spectral floor."""

    j: int
    x: float
    delta: float
    lhs: float
    rhs: float
    margin: float
    passed: bool


def lemma1_check(
    f: Signal, j: int, x: float, delta: float, bank: FilterBank
) -> Lemma1Report:
    """Check ||  |f * psi_j| * chi_x  ||^2 >= sum |f_hat psi_hat_j|^2 |chi_hat_x(w - delta)|^2.

    The left side keeps the full modulus; the right side is what survives
    if the modulus were replaced by a modulation to ``delta``.  The
    inequality is the positivity that drives the decay argument; it must
    hold for every real center delta, not just the favourable one.
    """
    if j not in bank.filters:
        raise ValueError(f"octave {j} outside bank range [{bank.j_min}, {bank.j_max}]")
    if f.n != bank.n:
        raise ValueError(f"signal length {f.n} does not match bank grid {bank.n}")
    if x <= 0:
        raise ValueError("width x must be positive")
    w = frequencies(f.n)
    f_hat = dft(f).coeffs
    filtered = f_hat * bank.filters[j].coeffs
    u_hat = dft(modulus(convolve(f, bank.filters[j]))).coeffs
    smoothed = u_hat * np.exp(-((w / x) ** 2))
    lhs = float(np.sum(np.abs(smoothed) ** 2))
    rhs = float(np.sum(np.abs(filtered) ** 2 * _chi_sq(w - delta, x)))
    margin = lhs - rhs
    scale = float(np.sum(np.abs(f_hat) ** 2))
    return Lemma1Report(
        j=j,
        x=x,
        delta=delta,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -1e-10 * max(scale, 1e-300),
    )


def lemma2_envelope_check(
    bank: FilterBank,
    constants: DecayConstants,
    x: float,
    a: float | None = None,
) -> ConditionReport:
    """Check the one-step width contraction envelope at width ``x``.

    For every validated frequency the octave-weighted modulation losses,
    each centered at the drifted frequency delta * 2^-j, must fit under
    the loss of a single Gaussian contracted by ``a``:

        (1/2) sum_j [ p_j (1 - |chi_hat_x(w - delta 2^-j)|^2)
                    + m_j (1 - |chi_hat_x(-w - delta 2^-j)|^2) ]
            <= 1 - |chi_hat_{a x}(w)|^2.

    Passing ``a`` overrides the certified contraction, which is how one
    demonstrates that a faster claimed contraction is false.
    """
    if x <= 0:
        raise ValueError("width x must be positive")
    contraction = constants.a if a is None else a
    if contraction <= 0:
        raise ValueError("contraction must be positive")
    lo, hi = _band_or_raise(bank)
    omegas = np.arange(lo, hi + 1, dtype=np.float64)

    def terms(j, w, p, m):
        center = constants.delta * math.ldexp(1.0, -j)
        return p, m, p * (1.0 - _chi_sq(w - center, x)) + m * (1.0 - _chi_sq(-w - center, x))

    sp, sm, lhs = _octave_sums(bank.mother, omegas, terms)
    s = 0.5 * (sp + sm)
    gaps = 1.0 - _chi_sq(omegas, contraction * x) - 0.5 * lhs
    idx = int(np.argmin(gaps))
    margin = float(gaps[idx])
    return ConditionReport(
        condition="modulation_envelope",
        passed=bool(margin >= -_ENVELOPE_TOL) and bool(np.all(s > _MASS_FLOOR)),
        margin=margin,
        witness_freq=float(omegas[idx]),
        tolerance=_ENVELOPE_TOL,
        details={
            "x": x,
            "contraction": contraction,
            "delta": constants.delta,
            "band": [int(lo), int(hi)],
        },
    )


# ---------------------------------------------------------------------------
# End-to-end verification.


@dataclass(frozen=True)
class DecayRow:
    n: int
    empirical: float
    bound: float
    slack: float


def _check_bound_layer(n: int) -> None:
    if n < 2:
        raise ValueError("the contraction argument starts at layer 2")


def _layer_loss(constants: DecayConstants, w: np.ndarray, n: int) -> np.ndarray:
    """Weight 1 - |chi_hat(w)|^2 of the layer-n bound, at the certified width r a^n."""
    return 1.0 - _chi_sq(w, constants.r * constants.a**n)


def verify_decay(
    f: Signal,
    bank: FilterBank,
    constants: DecayConstants,
    n_max: int = 4,
) -> list[DecayRow]:
    """Compare actual layer energies against the certified bound.

    The input must be real and spectrally supported on the validated
    band; outside it the constants certify nothing.  Rows start at layer
    2, the first layer the contraction argument controls.
    """
    _check_bound_layer(n_max)
    if not f.real:
        raise ValueError("decay verification needs a real signal")
    if f.n != bank.n:
        raise ValueError(f"signal length {f.n} does not match bank grid {bank.n}")
    lo, hi = _band_or_raise(bank)
    w = frequencies(f.n)
    power = np.abs(dft(f).coeffs) ** 2
    inside = (np.abs(w) >= lo) & (np.abs(w) <= hi)
    total = float(np.sum(power))
    if total == 0.0:
        raise ValueError("signal is identically zero")
    if float(np.sum(power[~inside])) > 1e-12 * total:
        raise ValueError(
            f"signal has spectral mass outside the validated band [{lo}, {hi}]"
        )
    profile = layer_energy_profile(f, bank, n_max)
    rows = []
    for n in range(2, n_max + 1):
        bound = float(np.sum(power * _layer_loss(constants, w, n)))
        empirical = profile[n]
        rows.append(DecayRow(n=n, empirical=empirical, bound=bound, slack=bound - empirical))
    return rows
