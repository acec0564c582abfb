import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from scatdecay import filterbank, scattering
from scatdecay.errors import BankConditionError, BudgetExceededError, NonTightBankError
from scatdecay.filterbank import bandpass_mother, build_bank, morlet_mother, shannon_mother
from scatdecay.scattering import (
    energy_balance,
    export_result,
    gaussian_output_lowpass,
    layer_energy_profile,
    scatter,
    shannon_tight_pair,
)
from scatdecay.signals import (
    Signal,
    band_limited_signal,
    complex_tone,
    convolve,
    dft,
    energy,
    frequencies,
    reflection_index,
    shift,
)


def cosine(n, omega):
    t = np.arange(n) / n
    return Signal(np.cos(2 * np.pi * omega * t), real=True)


def direct_node(samples, bank, path):
    # reference chain using raw numpy calls only
    cur = np.asarray(samples, dtype=complex)
    for j in path:
        filt = np.fft.ifftshift(bank.filters[j].coeffs)
        cur = np.abs(np.fft.ifft(np.fft.fft(cur) * filt))
    return cur


# --- single-path propagation -----------------------------------------------


def test_tone_lands_in_its_octave():
    # 2^-2 * 5 = 1.25 sits in (1, 2]; the filtered modulus is flat sqrt(2)
    bank, low = shannon_tight_pair(0, 64)
    u = scatter(complex_tone(64, 5), bank, low, n_max=1).u[(-2,)]
    assert np.max(np.abs(u.samples - math.sqrt(2.0))) < 1e-12
    assert energy(u) == pytest.approx(2.0, rel=1e-12)


def test_octave_edges_are_half_open():
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(complex_tone(64, 4), bank, low, n_max=1)
    # 4 maps to the right edge of (1, 2] under j = -1 and is kept there,
    # while j = -2 sends it to the excluded left edge
    kept = result.u[(-1,)]
    dropped = result.u[(-2,)]
    assert np.min(np.abs(kept.samples)) > 1.0
    assert np.max(np.abs(dropped.samples)) < 1e-13


def test_empty_path_returns_input():
    bank, low = shannon_tight_pair(0, 64)
    sig = cosine(64, 3)
    out = scatter(sig, bank, low, n_max=0).u[()]
    assert np.array_equal(out.samples, sig.samples)


def test_propagate_matches_direct_chain():
    rng = np.random.default_rng(17)
    bank = build_bank(morlet_mother(), 0, 128)
    sig = band_limited_signal(128, (4, 40), rng)
    result = scatter(sig, bank, gaussian_output_lowpass(0, 128), n_max=3)
    for path in [(-3,), (-3, -1), (-5, -2, 0)]:
        got = result.u[path].samples
        want = direct_node(sig.samples, bank, path)
        assert np.max(np.abs(got - want)) < 1e-12


# --- full tree ---------------------------------------------------------------


def test_tree_matches_propagate_per_path():
    rng = np.random.default_rng(29)
    bank, low = shannon_tight_pair(0, 64)
    sig = band_limited_signal(64, (2, 20), rng)
    result = scatter(sig, bank, low, n_max=2)
    assert len(result.u) == 1 + 6 + 36
    for path in [(), (-2,), (-2, -4), (0, 0)]:
        got = result.u[path].samples
        assert np.max(np.abs(got - direct_node(sig.samples, bank, path))) < 1e-12


def _morlet_gaussian_pair(j_max, n):
    # not tight: the energy-only last layer must not lean on a partition
    return build_bank(morlet_mother(), j_max, n), gaussian_output_lowpass(j_max, n)


@pytest.mark.parametrize("case", ["morlet", "morlet-pruned", "shannon-complex"])
def test_every_output_is_its_node_convolved_with_the_lowpass(case):
    # the readout shares each row's forward FFT with its children; the public path recomputes it
    rng = np.random.default_rng(43)
    if case == "shannon-complex":
        bank, low = shannon_tight_pair(0, 128)
        sig = Signal(rng.standard_normal(128) + 1j * rng.standard_normal(128))
    else:
        bank, low = _morlet_gaussian_pair(0, 128)
        sig = band_limited_signal(128, bank.validated_band, rng)
    result = scatter(sig, bank, low, n_max=3, prune_eps=1e-4 if case == "morlet-pruned" else 0.0)
    assert (len(result.pruned_paths) > 0) == (case == "morlet-pruned")
    for path in result.s:
        want = convolve(result.u[path], low).samples
        assert np.max(np.abs(result.s[path].samples - want)) <= 1e-12


def test_scatter_transforms_each_node_forward_once(monkeypatch):
    # one forward FFT per retained node feeds both its readout and its children
    bank, low = _morlet_gaussian_pair(0, 128)
    sig = band_limited_signal(128, bank.validated_band, np.random.default_rng(5))
    rows, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kw: rows.append(np.shape(a)[0]) or fft(a, *args, **kw))
    result = scatter(sig, bank, low, n_max=3)
    assert len(bank.filters) == 7 and len(result.s) == 1 + 7 + 49 + 343
    assert sum(rows) == len(result.s)


@pytest.mark.parametrize(
    "pair, n_max",
    [(shannon_tight_pair, 3), (_morlet_gaussian_pair, 4)],
    ids=["shannon", "morlet"],
)
def test_profile_agrees_with_tree(pair, n_max):
    rng = np.random.default_rng(31)
    bank, low = pair(0, 64)
    sig = band_limited_signal(64, (2, 20), rng)
    result = scatter(sig, bank, low, n_max=n_max)
    profile = layer_energy_profile(sig, bank, n_max)
    assert sorted(profile) == list(range(n_max + 1))
    for depth, value in profile.items():
        assert result.layer_energies[depth] == pytest.approx(value, rel=1e-13)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize(
    "pair", [shannon_tight_pair, _morlet_gaussian_pair], ids=["shannon", "morlet"]
)
def test_profile_agrees_with_tree_on_a_complex_root(pair, n_max):
    # depth 1 reads the root's children off its spectrum, which need not be Hermitian
    rng = np.random.default_rng(37)
    bank, low = pair(0, 64)
    sig = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    result = scatter(sig, bank, low, n_max=n_max)
    profile = layer_energy_profile(sig, bank, n_max)
    for depth, value in profile.items():
        assert result.layer_energies[depth] == pytest.approx(value, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 64, 256])
def test_child_energies_of_real_rows_match_the_full_spectrum(n):
    # N=2 holds only bins 0 and N/2, which pair with no other bin
    rng = np.random.default_rng(n)
    rows = np.vstack([rng.standard_normal((4, n)), np.abs(rng.standard_normal((4, n)))])
    weight = rng.uniform(0.0, 1.0, n)  # not even, so a wrong fold shows
    got = scattering._child_energies(rows, scattering._folded(weight), np.empty(rows.shape, complex))
    spec = np.fft.fft(rows, axis=1)
    want = np.sum((spec.real**2 + spec.imag**2) * weight, axis=1) / n**2
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_blocked_profiles_match_one_input_alone(make, n_max, monkeypatch):
    """Seven inputs in blocks of 3, 3 and 1 keep the bits each has on its own."""
    bank = build_bank(make(), 0, 64)
    rows = np.random.default_rng(43).standard_normal((7, 64))
    alone = [layer_energy_profile(Signal(row, real=True), bank, n_max) for row in rows]
    per_input = len(bank.filters) ** max(n_max - 1, 0) * 64  # values in one input's layer n_max-1
    monkeypatch.setattr(scattering, "_BLOCK_ELEMENTS", 3 * per_input)
    spectra = np.fft.fft(rows, axis=1)
    blocks = list(scattering._block_profiles(bank, n_max, 7, lambda i, k: spectra[i : i + k]))
    assert [(start, p.shape) for start, p in blocks] == [
        (0, (n_max + 1, 3)), (3, (n_max + 1, 3)), (6, (n_max + 1, 1))
    ]
    got = np.concatenate([p for _, p in blocks], axis=1)
    want = np.array([[profile[depth] for profile in alone] for depth in range(n_max + 1)])
    assert got.tobytes() == want.tobytes()


def _held_profiles(bank, n_max, spectra):
    """Every layer's energies with each formed layer held whole, then weighed in one call."""
    filts, breadth, n = scattering._filter_rows(bank), len(bank.filters), bank.n
    weight = np.sum(filts.real**2 + filts.imag**2, axis=0)
    profiles = np.empty((n_max + 1, len(spectra)))
    profiles[0] = np.sum(spectra.real**2 + spectra.imag**2, axis=1) / n / n
    if n_max >= 1:
        profiles[1] = np.sum((spectra.real**2 + spectra.imag**2) * weight, axis=1) / n**2
    batch = spectra
    for depth in range(1, n_max):
        parents = scattering._chunks(batch, breadth) if depth == 1 else scattering._spectra(batch, breadth)
        batch = np.empty((len(batch) * breadth, n))
        for _ in scattering._layer_moduli(parents, filts, batch):
            pass
        spare = np.empty(batch.shape, complex)
        energies = scattering._child_energies(batch, scattering._folded(weight), spare)
        profiles[depth + 1] = energies.reshape(len(spectra), -1).sum(axis=1)
    return profiles


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_streamed_last_layer_matches_held_layer(make, n_max, monkeypatch):
    """The deepest formed layer, weighed a chunk at a time, keeps the bits of the held one.

    Chunks of 1 value hold one row each; B N values, one parent row's
    products; 2^22 values, every row of a block at once.
    """
    bank = build_bank(make(), 0, 64)
    breadth = len(bank.filters)
    spectra = np.fft.fft(np.random.default_rng(47).standard_normal((7, 64)), axis=1)
    want = _held_profiles(bank, n_max, spectra)
    # blocks of 3, 3 and 1 inputs
    monkeypatch.setattr(scattering, "_BLOCK_ELEMENTS", 3 * breadth ** max(n_max - 1, 0) * 64)
    for chunk in (1, breadth * 64, scattering._CHUNK_ELEMENTS, 1 << 22):
        monkeypatch.setattr(scattering, "_CHUNK_ELEMENTS", chunk)
        blocks = scattering._block_profiles(bank, n_max, 7, lambda i, k: spectra[i : i + k])
        got = np.concatenate([p for _, p in blocks], axis=1)
        assert got.tobytes() == want.tobytes(), chunk


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("make", [morlet_mother, shannon_mother])
def test_layer_energy_does_not_depend_on_the_depth_asked_for(make, n):
    # every layer below the root is weighed from its parent's spectrum, at any depth
    bank = build_bank(make(), 0, n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        sig = band_limited_signal(n, bank.validated_band, rng)
        deepest = layer_energy_profile(sig, bank, 5)
        for n_max in range(6):
            profile = layer_energy_profile(sig, bank, n_max)
            assert [repr(profile[k]) for k in range(n_max + 1)] == [repr(deepest[k]) for k in range(n_max + 1)]


def test_cosine_second_layer_is_silent():
    # one octave turns a pure cosine into a constant; constants have no
    # band content, so layer 2 carries exactly nothing
    bank, low = shannon_tight_pair(0, 64)
    profile = layer_energy_profile(cosine(64, 5), bank, 2)
    assert profile[0] == pytest.approx(0.5, rel=1e-13)
    assert profile[1] == pytest.approx(0.5, rel=1e-13)
    assert profile[2] < 1e-30


def test_cosine_balance_is_exact():
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, low, n_max=2)
    for n in (1, 2):
        report = energy_balance(result, n)
        assert report.relative_residual < 1e-14


def test_balance_on_random_band_limited_signal():
    rng = np.random.default_rng(41)
    bank, low = shannon_tight_pair(0, 256)
    sig = band_limited_signal(256, (2, 127), rng)
    result = scatter(sig, bank, low, n_max=3)
    for n in (1, 2, 3):
        report = energy_balance(result, n)
        assert report.relative_residual < 1e-12
        assert report.total == pytest.approx(energy(sig), rel=1e-13)


@pytest.mark.parametrize("n", [0, 3])
def test_balance_refuses_a_layer_outside_the_tree(n):
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, low, n_max=2)
    with pytest.raises(ValueError, match=f"^need 1 <= n <= 2, got {n}$"):
        energy_balance(result, n)


def test_balance_requires_unpruned_tree():
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, low, n_max=1, prune_eps=1e-6)
    with pytest.raises(ValueError):
        energy_balance(result, 1)


def test_balance_requires_real_root():
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(complex_tone(64, 5), bank, low, n_max=1)
    with pytest.raises(ValueError):
        energy_balance(result, 1)


def test_balance_rejects_leaky_pair():
    bank, _ = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, gaussian_output_lowpass(0, 64), n_max=1)
    with pytest.raises(NonTightBankError):
        energy_balance(result, 1)


def test_partition_defect_of_tight_pair():
    bank, low = shannon_tight_pair(0, 256)
    w = np.abs(low.coeffs) ** 2
    for j in bank.scales:
        w = w + np.abs(bank.filters[j].coeffs) ** 2
    sym = 0.5 * (w + w[reflection_index(256)])
    assert np.max(np.abs(sym - 1.0)) <= 4e-16
    assert scattering._partition_defect(bank, low) == np.max(np.abs(sym - 1.0))


def test_tight_pair_lowpass_profile():
    _, low = shannon_tight_pair(0, 64)
    coeffs = low.coeffs
    w = frequencies(64)
    assert coeffs[w == 0] == 1.0
    assert coeffs[w == 1] == 1.0 and coeffs[w == -1] == 1.0
    assert coeffs[w == 2] == 0.0
    assert coeffs[w == -32] == 1.0  # unpaired bin belongs to the low-pass


# --- covariance and stability ------------------------------------------------


def test_translation_covariance_of_nodes():
    rng = np.random.default_rng(43)
    bank, low = shannon_tight_pair(0, 128)
    sig = band_limited_signal(128, (2, 50), rng)
    moved = scatter(shift(sig, 11), bank, low, n_max=2)
    still = scatter(sig, bank, low, n_max=2)
    for path in [(-1,), (-3, -2)]:
        a = moved.u[path].samples
        b = np.roll(still.u[path].samples, 11)
        assert np.max(np.abs(a - b)) < 1e-11


def test_transform_is_non_expansive():
    rng = np.random.default_rng(47)
    bank, low = shannon_tight_pair(0, 128)
    f = band_limited_signal(128, (2, 60), rng)
    g = band_limited_signal(128, (2, 60), rng)
    rf = scatter(f, bank, low, n_max=2)
    rg = scatter(g, bank, low, n_max=2)
    dist = sum(
        energy(Signal(rf.s[p].samples - rg.s[p].samples)) for p in rf.s
    )
    gap = energy(Signal(f.samples - g.samples))
    assert dist <= gap * (1 + 1e-12)


# --- pruning and budgets -----------------------------------------------------


def test_prune_drops_silent_branches_but_counts_them():
    bank, low = shannon_tight_pair(0, 64)
    tone = cosine(64, 5)
    result = scatter(tone, bank, low, n_max=2, prune_eps=1e-3)
    # only the octave holding the tone survives layer 1
    assert set(result.u) == {(), (-2,)}
    assert result.layer_energies[1] == pytest.approx(0.5, rel=1e-12)
    assert result.pruned_mass == pytest.approx(0.0, abs=1e-20)
    assert all(len(p) in (1, 2) for p in result.pruned_paths)
    assert len(result.pruned_paths) == 5 + 6


def test_prune_zero_keeps_silent_nodes():
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, low, n_max=2, prune_eps=0.0)
    assert len(result.u) == 43
    assert result.pruned_paths == ()
    assert result.pruned_mass == 0.0


def test_pruned_mass_accounts_for_discarded_energy():
    rng = np.random.default_rng(53)
    bank, low = shannon_tight_pair(0, 128)
    sig = band_limited_signal(128, (2, 60), rng)
    full = scatter(sig, bank, low, n_max=2, prune_eps=0.0)
    pruned = scatter(sig, bank, low, n_max=2, prune_eps=0.05)
    assert len(pruned.pruned_paths) > 0
    # every discarded node exists in the unpruned tree with the same energy
    recomputed = sum(energy(full.u[p]) for p in pruned.pruned_paths)
    assert pruned.pruned_mass == pytest.approx(recomputed, rel=1e-12)
    # layer totals count pruned nodes, so layer 1 matches the unpruned run
    assert pruned.layer_energies[1] == pytest.approx(full.layer_energies[1], rel=1e-12)


def _result_bytes(result):
    """Every array and number a scattering tree holds, as bytes."""
    parts = [np.array(list(result.layer_energies.values())).tobytes(),
             np.array(list(result.output_energies.values())).tobytes(),
             repr((result.pruned_mass, result.pruned_paths, sorted(result.u))).encode()]
    for tree in (result.u, result.s):
        parts += [tree[p].samples.tobytes() for p in sorted(tree)]
    return b"".join(parts)


def _pinned_tree(case):
    rng = np.random.default_rng(97)
    if case == "complex":
        bank, low = shannon_tight_pair(0, 64)
        return scatter(Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64)), bank, low, 2)
    if case == "emptied":  # layer 2 is pruned whole, so layer 3 holds no rows
        bank, low = shannon_tight_pair(0, 64)
        return scatter(cosine(64, 5), bank, low, 3, prune_eps=1e-3)
    n = 128 if case == "pruned" else 64
    bank, low = shannon_tight_pair(0, n) if case == "shannon" else _morlet_gaussian_pair(0, n)
    return scatter(band_limited_signal(n, (2, n // 2 - 4), rng), bank, low, 3,
                   prune_eps=1e-5 if case == "pruned" else 0.0)


# SHA-256 of every array and number each tree holds, on the AVX-512 NumPy
# kernel family: the tree's storage may change, its bits may not
@pytest.mark.parametrize("case, digest", [
    ("morlet", "0709616046756fca5d19f97dc635cad9952445fd6d6f84d1bd69731fb7d14cae"),
    ("shannon", "36407aad5978dc4f03f3ff2075beac1a22518abb9ac02237ea6fe23f1d7a762d"),
    ("pruned", "46ea7a764aa244c6e2ce3db28f06a9d1ee4bfa989241b01f99f760761abff27e"),
    ("emptied", "89b9ef948810c1f3c2a6e175964e62f0a7f0aa1b3bf88edd9b9758af8154f4a0"),
    ("complex", "d5ff66592bc255d9b02cf2c0097b2e277f1d8d413b38bc1a8c0e00b94c2a2f88"),
])
def test_tree_bits_are_pinned(case, digest, kernel_family):
    if kernel_family == "avx2":
        digest = AVX2_TREE_DIGESTS.get(case, digest)
    assert hashlib.sha256(_result_bytes(_pinned_tree(case))).hexdigest() == digest


# the AVX2 kernel family's digests, where they differ from the AVX-512 ones
AVX2_TREE_DIGESTS = {
    "morlet": "bc666ff9b7316156a9b46d63e35f01d0e1d154ab1fbde4cd8c6112bf85290f91",
    "pruned": "8030025a6ce7e4546798b859ae84ad0a2c041fba04418c0edf3a1b73b6890d87",
}


def test_chunk_size_does_not_change_bits(monkeypatch):
    """FFT passes chunked by rows give the same bits at any chunk size.

    The chunks of ``_spectra`` hold 1 row up to every row of a layer; 7 N
    values leave a partial last chunk of the low-pass and energy passes.
    ``scatter``'s U and S rows, its real and complex trees alike, keep their bits.
    """
    rng = np.random.default_rng(71)
    bank, low = _morlet_gaussian_pair(0, 64)
    rows = np.stack([band_limited_signal(64, (2, 30), rng).samples.real for _ in range(5)])
    sig = band_limited_signal(64, (2, 30), rng)
    tight_bank, tight_low = shannon_tight_pair(0, 64)
    noise = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))

    def run():
        spectra = lambda i, k: np.fft.fft(rows[i : i + k], axis=1)
        blocks = scattering._block_profiles(bank, 3, 5, spectra)
        return (
            b"".join(p.tobytes() for _, p in blocks),
            _result_bytes(scatter(sig, bank, low, n_max=3)),
            _result_bytes(scatter(sig, bank, low, n_max=3, prune_eps=1e-3)),
            _result_bytes(scatter(noise, tight_bank, tight_low, n_max=3)),
        )

    default = run()
    for chunk in (1, 7 * 64, 1 << 15, 1 << 20, 1 << 22):
        monkeypatch.setattr(scattering, "_CHUNK_ELEMENTS", chunk)
        assert run() == default


def test_depth_budget():
    # 2 * 64 * sum_{k <= 8} 6^k complex values, ~4 GB: refused before a layer is formed
    bank, low = shannon_tight_pair(0, 64)
    with pytest.raises(BudgetExceededError) as info:
        scatter(cosine(64, 5), bank, low, n_max=8)
    assert info.value.estimated_bytes == 16 * 2 * 64 * sum(6**k for k in range(9))


def test_breadth_budget():
    # 13 octaves: the profile's layer 6 holds 64 * 13^6 complex values, ~4.9 GB
    bank = build_bank(shannon_mother(), 0, 64, j_min=-12)
    with pytest.raises(BudgetExceededError) as info:
        layer_energy_profile(cosine(64, 5), bank, 7)
    assert info.value.estimated_bytes == 16 * 64 * 13**6


def test_absurd_depth_is_refused_at_once():
    # the count stops at depth 64, so no B^(10^9) integer is ever built
    bank, low = shannon_tight_pair(0, 64)
    with pytest.raises(BudgetExceededError) as info:
        scatter(cosine(64, 5), bank, low, n_max=10**9)
    assert info.value.estimated_bytes == 16 * 2 * 64 * ((6**64 - 1) // 5)  # depths 0..63
    with pytest.raises(BudgetExceededError):
        layer_energy_profile(cosine(64, 5), bank, 10**9)


def _runs_on_exactly(monkeypatch, nbytes, request):
    """``request`` runs on a budget of ``nbytes`` and is refused one byte under it."""
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes)
    request()
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", nbytes - 1)
    with pytest.raises(BudgetExceededError) as info:
        request()
    assert info.value.estimated_bytes == nbytes


def test_scatter_budget_counts_every_node(monkeypatch):
    bank, low = shannon_tight_pair(0, 64)  # 6 octaves; U and S of 1 + 6 + 36 + 216 nodes
    _runs_on_exactly(monkeypatch, 16 * 2 * 64 * 259, lambda: scatter(cosine(64, 5), bank, low, 3))


def test_scatter_refuses_an_inflated_bank_before_any_layer(monkeypatch):
    # read_signal's bound admits this signal, but only for octave sums <= 1: at amplitude
    # 1e150 the layers once overflowed with RuntimeWarnings and an error naming no input
    def no_layer(*args):
        raise AssertionError("a layer was formed")

    monkeypatch.setattr(scattering, "_layer_moduli", no_layer)
    bank = build_bank(bandpass_mother(1, 2, amplitude=1e150), 0, 128)
    sig = Signal(np.repeat([1e10, -1e10], 64).astype(np.complex128), real=True)
    message = re.escape("squared sums exceed one (margin -5.000e+299 at w = 2.0)")
    with pytest.raises(BankConditionError, match=message):
        scatter(sig, bank, gaussian_output_lowpass(bank.j_max, 128), 2)


def test_profile_budget_counts_the_deepest_formed_layer(monkeypatch):
    bank = build_bank(morlet_mother(), 0, 64)  # 6 octaves
    sig = cosine(64, 5)
    # layer 2 is the deepest formed at depth 3, which is only weighed
    _runs_on_exactly(monkeypatch, 16 * 64 * 36, lambda: layer_energy_profile(sig, bank, 3))
    for n_max in (0, 1):  # the input itself is the deepest row held
        _runs_on_exactly(monkeypatch, 16 * 64, lambda: layer_energy_profile(sig, bank, n_max))


@pytest.mark.parametrize("n, n_max", [(256, 5), (2048, 4)])
def test_profile_holds_no_more_than_its_refusal_counts(n, n_max, monkeypatch):
    # the count is the deepest formed layer, 16 N B^(n_max-1) bytes; its energies are
    # weighed from its spectrum in L2-sized chunks, so no second copy of it is formed
    bank = build_bank(morlet_mother(), 0, n)
    sig = band_limited_signal(n, bank.validated_band, np.random.default_rng(n))
    layer_energy_profile(sig, bank, 2)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        layer_energy_profile(sig, bank, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", 0)
    with pytest.raises(BudgetExceededError) as info:
        layer_energy_profile(sig, bank, n_max)
    assert info.value.estimated_bytes == 16 * n * len(bank.filters) ** (n_max - 1)
    assert peak <= info.value.estimated_bytes


@pytest.mark.parametrize("n, n_max", [(256, 4), (1024, 3)])
def test_scatter_holds_no_more_than_its_refusal_counts(n, n_max, monkeypatch):
    # the count is one complex U and S row per node, 32 N bytes; the tree holds its U rows
    # as float64 below the root and its S rows as complex128, 24 N bytes per node, and
    # reads each layer out chunk by chunk, so the chunk buffers fit in the difference.
    # Smaller trees stay over their count (depth 1 at N=256 peaks at 2.6 times it), where
    # the chunk buffers and path bookkeeping outweigh the nodes
    bank, low = _morlet_gaussian_pair(0, n)
    sig = band_limited_signal(n, bank.validated_band, np.random.default_rng(n))
    scatter(sig, bank, low, 1)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        scatter(sig, bank, low, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(filterbank, "_BUDGET_BYTES", 0)
    with pytest.raises(BudgetExceededError) as info:
        scatter(sig, bank, low, n_max)
    breadth = len(bank.filters)
    assert info.value.estimated_bytes == 32 * n * (breadth ** (n_max + 1) - 1) // (breadth - 1)
    assert peak <= info.value.estimated_bytes


@pytest.mark.parametrize("n_max, ceiling", [(5, 4 << 20), (6, 16 << 20)])
def test_profile_peak_stays_under_its_ceiling(n_max, ceiling):
    # layer n_max - 1 (10.0 and 74.1 MiB traced peaks when it was held) is weighed a
    # chunk at a time, so the peak is the held layer n_max - 2 and one chunk's buffers
    bank = build_bank(morlet_mother(), 0, 256)
    sig = band_limited_signal(256, bank.validated_band, np.random.default_rng(256))
    layer_energy_profile(sig, bank, 2)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        layer_energy_profile(sig, bank, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ceiling


def test_wide_bank_runs_at_depth_one():
    # N=8192 keeps 13 octaves; depth 1 holds 2 * 8192 * 14 complex values, ~3.7 MB
    rng = np.random.default_rng(8)
    bank = build_bank(morlet_mother(), 0, 8192)
    assert len(bank.filters) == 13
    sig = band_limited_signal(8192, (2, 4000), rng)
    tree = scatter(sig, bank, gaussian_output_lowpass(0, 8192), 1)
    profile = layer_energy_profile(sig, bank, 1)
    for n in (0, 1):
        assert tree.layer_energies[n] == pytest.approx(profile[n], rel=1e-13)


def test_negative_depth_rejected():
    bank, low = shannon_tight_pair(0, 64)
    with pytest.raises(ValueError):
        scatter(cosine(64, 5), bank, low, n_max=-1)
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        layer_energy_profile(cosine(64, 5), bank, -1)


def test_profile_refuses_a_signal_off_the_grid():
    bank, _ = shannon_tight_pair(0, 64)
    with pytest.raises(ValueError, match="^signal length 128 does not match bank grid 64$"):
        layer_energy_profile(cosine(128, 5), bank, 2)


def test_scatter_builds_nodes_on_read(monkeypatch):
    built = []
    monkeypatch.setattr(scattering, "Signal", lambda *a, **k: built.append(1) or Signal(*a, **k))
    bank, low = shannon_tight_pair(0, 64)
    result = scatter(cosine(64, 5), bank, low, n_max=3)
    assert built == [] and len(result.u) == len(result.s) == 259
    node = result.u[(-2, -1)]
    assert len(built) == 1 and node.real
    with pytest.raises(ValueError):
        node.samples[0] = 1.0  # read-only
    with pytest.raises(KeyError):
        result.s[(-2, -1, 0, 0, 0)]
    # samples of 1e308 overflow the transform to inf: scatter itself refuses the layer
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        scatter(Signal(np.full(64, 1e308), real=True), bank, low, n_max=1)


# --- export ------------------------------------------------------------------


def test_export_layout_and_stability(tmp_path):
    rng = np.random.default_rng(61)
    bank, low = shannon_tight_pair(0, 64)
    sig = band_limited_signal(64, (2, 20), rng)
    result = scatter(sig, bank, low, n_max=1)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    export_result(result, out_a)
    export_result(scatter(sig, bank, low, n_max=1), out_b)

    names = sorted(os.listdir(out_a))
    assert "manifest.json" in names and "profile.csv" in names
    assert "s_root.csv" in names and "s_-2.csv" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["bank"]["N"] == 64
    assert manifest["n_max"] == 1
    assert len(manifest["retained_paths"]) == 7

    lines = (out_a / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "n,energy"
    assert float(lines[1].split(",")[1]) == pytest.approx(energy(sig))
