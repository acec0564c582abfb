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
    _MASS_FLOOR,
    X_WINDOW,
    ConditionReport,
    FilterBank,
    MotherWavelet,
    _octave_sums,
    _refuse_inflated,
    _window_squares,
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

# slack allowed to the combined window bound and to the admissibility of the initial
# width x_init: one constant, so the width search always stops (see _admissible_width)
_X_TOL = 1e-9
_ENVELOPE_TOL = 1e-9  # slack allowed to the one-step contraction envelope
_SLACK_TOL = 1e-8  # excess of a layer's energy over its bound still reported as OK, per unit of ||f||^2


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
            "bank has no validated band: the retained octaves nowhere both "
            "reproduce the full dyadic sum and carry octave mass"
        )
    return bank.validated_band


def _order_or_raise(mother: MotherWavelet) -> ConditionReport:
    """``estimate_vanishing_order``'s report, raised as ``VanishingOrderError`` unless it passed."""
    order = estimate_vanishing_order(mother)
    if not order.passed:
        raise VanishingOrderError(
            f"near-zero decay order {order.details['epsilon_hat']:.4f} "
            f"below {order.details['threshold']}"
        )
    return order


def _functional_terms(bank: FilterBank, omegas: np.ndarray):
    """Converged S, F1 and F2 numerators at ascending, strictly positive omegas."""

    def terms(j, w, p, m):
        w1 = np.ldexp(1.0, -j)
        return p, m, (p - m) * w1, (p + m) * w1 * w1

    sp, sm, n1, n2 = _octave_sums(bank.mother, omegas, terms)
    return 0.5 * (sp + sm), 0.5 * n1, 0.5 * n2


def _functional_on_band(bank: FilterBank, which: str) -> FreqFunctional:
    """S, F1 or F2 at the integers of the validated band.

    No band integer is a hole, so n1 / S and n2 / S are defined: S(w) is at
    least the retained octaves' 0.5 * (kept_p + kept_m), which ``build_bank``
    requires above ``_MASS_FLOOR`` at every band integer (see
    ``filterbank._validated_band``).
    """
    lo, hi = _band_or_raise(bank)
    omegas = np.arange(lo, hi + 1, dtype=np.float64)
    s, n1, n2 = _functional_terms(bank, omegas)
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
    2^j_max (2w) lies in ``X_WINDOW``, else an exact 0.0.  So each octave row
    is the row below it plus that term, the last addition the direct sum
    makes, and the rows take the bits ``_octave_sums`` gives on the flat
    grid.  Only the base row is summed over all octaves; the octave j_max
    terms of rows 1.. take one ``_window_squares`` call, and a cumulative sum
    down the rows, which adds them in row order, does every doubling step.
    That call takes only the rows that reach ``X_WINDOW``, whose first point
    2^j_max w is at most its top: every later row's term is an exact 0.0.
    """
    base = np.geomspace(2.0**-8, 2.0**-7, _OCTAVE_POINTS, endpoint=False)
    base = np.insert(base, 1, 2.0**-8 * (1.0 + 1e-9))
    # C int exponents: np.ldexp takes int64 ones on a far slower loop
    rows = np.ldexp(base, np.arange((bank.n // 2).bit_length() + 8, dtype=np.intc)[:, None])
    sums = np.empty(rows.shape)
    (sums[0],) = _octave_sums(bank.mother, rows[0], lambda j, w, p, m: (p + m,), j_max=bank.j_max)
    # row k's octave j_max term, p + m, then each row added to the sum of the row below
    reach = 1 + int(np.count_nonzero(np.ldexp(rows[1:, 0], bank.j_max) <= X_WINDOW[1]))
    np.add(*_window_squares(bank.mother, np.ldexp(rows[1:reach], bank.j_max)), out=sums[1:reach])
    sums[reach:] = 0.0
    np.cumsum(sums, axis=0, out=sums)
    stop = rows.size - rows.shape[1] + 2
    return rows.ravel()[:stop], 0.5 * sums.ravel()[:stop]


def initialize_lowpass(bank: FilterBank) -> InitLowpass:
    """Construct the initial window and certify its curvature budget.

    Steps, each with its own grid check:

    1. raised cosine gamma_hat(xi) = cos^2(2 pi xi) on [-1/4, 1/4];
    2. phi0_hat = gamma_hat * gamma_hat / ||gamma_hat||^2, its
       autocorrelation normalized to phi0_hat(0) = 1, in closed form
           phi0_hat(u) = [(1 - 2|u|)(2 + cos 4 pi u) + (3 / (2 pi)) sin 4 pi |u|] / 3
       on [-1/2, 1/2], evaluated on a grid of step 2^-15: exactly 1 at
       u = 0 and below 1 elsewhere;
    3. alpha_tilde = min over the support of (1 - phi0_hat^2) / u^2,
       the worst quadratic headroom of the window;
    4. curvature_sup = sup over the positive reals of the octave sums
       for j <= j_max divided by w^2, taken on a grid closed under
       doubling: one log-spaced octave from 2^-8, with a point just above
       its edge, where indicator-type profiles jump and an integer grid
       badly under-samples the sup, copied exactly to every octave up to
       N/2.  The sums on one octave are those on the octave below plus the
       single term at j_max, so past the first octave each grid point
       costs one mother evaluation, not one per octave, and the octaves
       above the first are one cumulative sum of those terms;
    5. m_scale = sqrt(curvature_sup / alpha_tilde), inflated by 1e-6 so
       the rescaled window hides strictly inside the uncovered zone.

    Steps 1-3 do not depend on the bank: they run once per process, and
    every returned window shares the same read-only ``phi_grid`` and
    ``phi_values`` arrays.

    The combined bound |phi_hat|^2 + octave sums <= 1 + ``_X_TOL`` is then
    verified on both the continuum grid and the integer grid; a violation
    means the bank is not usable with this construction.
    """
    _order_or_raise(bank.mother)
    return _lowpass_and_integer_sums(bank)[0]


def _lowpass_and_integer_sums(bank: FilterBank) -> tuple[InitLowpass, np.ndarray]:
    """``initialize_lowpass`` plus the octave sums for j <= j_max at the integers 1..N/2.

    The caller has checked the mother's order with ``_order_or_raise``.
    """
    u, phi0, alpha_tilde = _raised_cosine_window()

    grid, lp_grid = _curvature_sums(bank)
    curvature_sup = float(np.max(lp_grid / grid**2))
    if not curvature_sup > 0.0:
        # the band's mass can lie between the grid's points: a bandpass (1.4999, 1.5001] has it
        # only on the orbit of 1.5
        raise CoverageHoleError(f"no octave mass for j <= {bank.j_max} anywhere on the curvature grid "
                                f"[2^-8, {bank.n // 2}], so the initial window cannot be scaled")

    m_scale = math.sqrt(curvature_sup / alpha_tilde) * (1.0 + 1e-6)
    init = InitLowpass(
        m_scale=m_scale,
        alpha_tilde=alpha_tilde,
        curvature_sup=curvature_sup,
        phi_grid=u,
        phi_values=phi0,
    )

    ints = np.arange(1, bank.n // 2 + 1, dtype=np.float64)
    lp_ints = _lp_up_to_coarsest(bank, ints)
    # the combined bound on the continuum grid and on the integers, in one pass
    omegas, lp = np.concatenate([grid, ints]), np.concatenate([lp_grid, lp_ints])
    worst = float(np.max(init.phi_hat(omegas) ** 2 + lp))
    if not worst <= 1.0 + _X_TOL:  # NaN fails it too
        raise BankConditionError(
            f"initial window violates the combined bound: max {worst:.12f}"
        )
    return init, lp_ints


def _smoothed_window_sq(init: InitLowpass, omegas: np.ndarray) -> np.ndarray:
    """(|phi_hat|^2 * g)(w) for the unit Gaussian weight g.

    The integrand vanishes outside phi_hat's support, so the quadrature
    runs over exactly that interval on the construction's fine grid, one
    frequency at a time, with numpy's trapezoid arithmetic over the whole
    table.  Two rows of the support's size, the integrand and the
    trapezoid's panels, are allocated once and reused by every frequency.
    Which frequencies are worth smoothing is the caller's to decide: see
    ``_window_reaches``.
    """
    support = init.phi_grid / init.m_scale
    values = init.phi_values**2
    dx = np.diff(support)
    out = np.empty(omegas.shape)
    y = np.empty(support.shape)
    panels = np.empty(dx.shape)
    for i, w in enumerate(omegas):
        np.subtract(w, support, out=y)
        np.square(y, out=y)
        np.exp(np.negative(y, out=y), out=y)
        np.divide(y, math.sqrt(math.pi), out=y)
        np.multiply(values, y, out=y)
        # numpy's trapezoid arithmetic, (dx * (y[1:] + y[:-1])) / 2, summed
        np.add(y[1:], y[:-1], out=panels)
        np.multiply(dx, panels, out=panels)
        np.divide(panels, 2.0, out=panels)
        out[i] = np.sum(panels)
    return out


def _window_reaches(init: InitLowpass, omegas: np.ndarray) -> np.ndarray:
    """Where ``1.0 - _smoothed_window_sq(init, omegas)`` can differ from 1.0.

    phi_hat^2 <= 1 on its support of length L = 1/m_scale, [-L/2, L/2], and
    zero outside, so with gap = |w| - L/2 > 0 every integrand value is at most
    exp(-gap^2) / sqrt(pi) and the quadrature, whose weights add up to L, at
    most L exp(-gap^2) / sqrt(pi).  Twice that covers the rounding.  In
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
    clears the condition everywhere.  It always stops by x = 2^(-17/8):
    see ``_admissible_width``.
    """
    _order_or_raise(bank.mother)
    _band_or_raise(bank)
    return _admissible_width(bank)[0]


def _admissible_width(bank: FilterBank) -> tuple[float, float]:
    """The search of ``initialize_x`` plus its slack min(1 - |chi_hat_x|^2 - F).

    The envelope slices its band lo..hi from the window construction's
    octave sums at the integers 1..N/2: a column's sum does not depend on
    the rest of its grid.  The window is smoothed only on the rows where
    ``_window_reaches``: every other row keeps 1.0 - 0.0, the bits 1.0 - v has.

    The search needs no floor.  The window construction in the same call
    refused any bank whose |phi_hat|^2 + octave sums pass 1 + ``_X_TOL`` at
    the integers, and 1 - smoothed lies in [0, 1], so every band row of F
    is at most 1 + ``_X_TOL``.  Every band frequency is at least 1, so at
    x = 2^(-17/8), 2 (w/x)^2 >= 2^(21/4) > 38 and 1 - |chi_hat_x(w)|^2 rounds
    to 1.0, the right side is the float 1.0 + ``_X_TOL``, and the loop stops
    there at the latest.
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
            break
    return x, float(np.min(1.0 - _chi_sq(omegas, x) - envelope))


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

    The dense samples of the reference octave still meet holes in the
    continuum, and are left out of c and C where S is at most
    ``_MASS_FLOOR``.  The image of a band integer never is: S there has the
    bits S has at the integer, since the sums are dyadically homogeneous bit
    for bit, and that is above ``_MASS_FLOOR`` (see ``_functional_on_band``),
    so c and C always range over one sample at least.
    """
    band = _band_or_raise(bank)

    lp = _refuse_inflated(bank)
    order = _order_or_raise(bank.mother)

    x = _octave_samples(bank)
    s, n1, n2 = _functional_terms(bank, x)
    usable = s > _MASS_FLOOR
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
    demonstrates that a faster claimed contraction is false.  The band
    holds no hole (see ``_functional_on_band``), so every validated
    frequency carries octave mass and the inequality is all that is checked.
    """
    if x <= 0:
        raise ValueError("width x must be positive")
    contraction = constants.a if a is None else a
    if contraction <= 0:
        raise ValueError("contraction must be positive")
    lo, hi = _band_or_raise(bank)
    omegas = np.arange(lo, hi + 1, dtype=np.float64)

    def terms(j, w, p, m):
        center = constants.delta * np.ldexp(1.0, -j)
        return (p * (1.0 - _chi_sq(w - center, x)) + m * (1.0 - _chi_sq(-w - center, x)),)

    (lhs,) = _octave_sums(bank.mother, omegas, terms)
    gaps = 1.0 - _chi_sq(omegas, contraction * x) - 0.5 * lhs
    idx = int(np.argmin(gaps))
    margin = float(gaps[idx])
    return ConditionReport(
        condition="modulation_envelope",
        passed=bool(margin >= -_ENVELOPE_TOL),
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


def _layer_bound(power: np.ndarray, constants: DecayConstants, n: int) -> float:
    """The a-priori layer-n bound sum_w power(w) (1 - |chi_hat(r a^n w)|^2), ``power`` on the centered grid.

    The one place the bound is summed: ``verify_decay`` gives it a signal's
    |f_hat|^2, and ``stationary.stationary_bound`` a model's density.
    """
    _check_bound_layer(n)
    return float(np.sum(power * (1.0 - _chi_sq(frequencies(power.size), constants.r * constants.a**n))))


def _check_signal(f: Signal, bank: FilterBank) -> np.ndarray:
    """The refusals of ``verify_decay``'s input; its power spectrum if none applies."""
    if not f.real:
        raise ValueError("decay verification needs a real signal")
    if f.n != bank.n:
        raise ValueError(f"signal length {f.n} does not match bank grid {bank.n}")
    lo, hi = _band_or_raise(bank)
    w = frequencies(f.n)
    power = np.abs(dft(f).coeffs) ** 2
    inside = (np.abs(w) >= lo) & (np.abs(w) <= hi)
    total = float(np.sum(power))
    # below this, the layer energies a verdict weighs against its tolerance are subnormal or zero
    if _SLACK_TOL * total < np.finfo(np.float64).tiny:
        raise ValueError(f"signal energy {total:.6g} is too small to check: its verdicts' tolerance, {_SLACK_TOL:g} "
                         f"of it, is below float64's smallest normal number; scaling the signal by a power of two "
                         f"moves no verdict")
    if float(np.sum(power[~inside])) > 1e-12 * total:
        raise ValueError(
            f"signal has spectral mass outside the validated band [{lo}, {hi}]"
        )
    return power


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
    power = _check_signal(f, bank)
    profile = layer_energy_profile(f, bank, n_max)
    rows = []
    for n in range(2, n_max + 1):
        bound = _layer_bound(power, constants, n)
        rows.append(DecayRow(n=n, empirical=profile[n], bound=bound, slack=bound - profile[n]))
    return rows
