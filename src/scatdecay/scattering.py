"""Scattering transform: iterated wavelet modulus with low-pass readout.

The tree is indexed by paths p = (j_1, ..., j_n) of octave choices.  The
root carries the input itself; extending a path by j takes the modulus
of a convolution with the octave-j filter,

    U[()](f) = f,    U[p + (j,)](f) = |U[p](f) * psi_j|,

and every retained node is read out through the low-pass, S[p] = U[p] * phi.

Each layer is one pass over its rows as a matrix, in chunks: a row's one
forward FFT feeds both its low-pass readout and its children, so depth-n
trees cost O(B^n * N log N) but vectorize well.  The readout and its
energies are written chunk by chunk as the spectra pass, so no layer is
transformed or squared whole.  A request whose nodes, one complex128 U and
one S row each, exceed one memory budget (1 GiB) is refused before anything
is allocated, so depth is limited by what fits.  The tree holds its U rows
below the root as float64, 24 N bytes per node against the 32 N counted,
and the difference covers the chunk buffers of large trees: the traced peak
of Morlet N=256 at depth 4 is 28.9 against 36.6 MiB counted, and of N=1024
at depth 3 27.4 against 34.7 MiB.  Small trees stay over their count, where
the chunk buffers and path bookkeeping outweigh the nodes: 2.6, 1.9 and
1.1 times it at depths 1, 2 and 3 on N=256.

Energy-only profiles run in blocks of inputs, each block one batched pass
that never forms the requested layer n.  Every layer below the root is
weighed from its parent's spectrum, because the modulus keeps energy: each
parent row passes (1/N^2) sum_w |row_hat(w)|^2 sum_j |psi_j(w)|^2 to its
children, so a layer's energy does not depend on the depth asked for.  A
block enters as the spectra of its inputs, so layer 1 takes no forward FFT,
and every row below the root is a real modulus, whose spectrum takes a
half-spectrum ``np.fft.rfft``.  A block's layer n - 1 has at most 2^18
values, or one input's if more, and is never held: each chunk of it is
weighed as it is formed.  A call keeps one buffer per held layer 1..n-2,
sized for one block and reused by every block.  Every FFT pass over a layer
runs through ``_chunks``, in chunks whose spectra and filter products stay
near L2 cache size.

A block is scored on up to two usable CPUs: one contiguous share of its
inputs per CPU, each share the serial pass on its own rows of the block's
buffers, on a thread pool made for the call, while the calling thread draws
every block, in order, and scores the first share.  So an input's energies
keep their bits, and a call with one input, such as ``layer_energy_profile``,
starts no thread.  Each share holds its own chunk buffers: a full chunk on a
layer-1 pass, a share of one on a deeper pass.  Two shares is what was
measured, and the cap keeps the peak from growing with the CPU count.  The
Monte Carlo fills only the profile row of the layer it estimates, so no held
layer is weighed.  With 2,000 trials on Morlet N=128,
``stationary.mc_layer_energy`` peaks at 1.6 MiB traced at depth 2 on one CPU
and 2.6 MiB on two or more, and at 1.5 and 1.7 MiB at depth 3.

The refusal of an energy-only pass, ``_check_profile``, which
``stationary._check_mc_request`` calls with 8 bytes per trial, counts its
deepest formed layer n - 1 as held complex values, N B^(n-1) of them for B
octaves.  What a pass holds is layers 1..n-2 as float64 plus its chunk
buffers, whose size does not depend on n, so the count bounds the peak on
neither side.  On Morlet
N=256 (tracemalloc peaks of ``layer_energy_profile``) the count is below the
peak at depths 2 and 3, 0.03 and 0.25 MiB against 0.1 and 0.7 MiB, where the
chunk buffers dominate, and 7 to 12 times over it at depths 5 and 6, 16 and
128 MiB against 2.3 and 10.6 MiB.
"""
from __future__ import annotations

import collections
import contextlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import NonTightBankError
from .filterbank import FilterBank, _check_bytes, _recipe, _refuse_inflated, build_bank, shannon_mother
from .signals import (
    Signal,
    Spectrum,
    _frozen,
    _row_energies,
    _write_json,
    _write_table,
    frequencies,
    gaussian_lowpass,
    reflection_index,
    write_signal,
)

__all__ = [
    "Path",
    "ScatteringResult",
    "BalanceReport",
    "scatter",
    "layer_energy_profile",
    "energy_balance",
    "shannon_tight_pair",
    "gaussian_output_lowpass",
    "export_result",
]

Path = tuple[int, ...]

_PARTITION_TOL = 1e-9  # largest partition defect of a pair energy_balance takes as tight

# values per FFT chunk: a chunk's complex spectra, filter products and
# inverse transforms stay near 512 KB each, inside a core's L2 cache, where
# a larger chunk would stream every pass through main memory
_CHUNK_ELEMENTS = 1 << 15

# values in the deepest layer a block of ``_block_profiles`` forms, chunk by chunk; the
# deepest it holds, one layer up, has B times fewer
_BLOCK_ELEMENTS = 1 << 18

# most shares, one per usable CPU, a block of ``_block_profiles`` splits into: each share holds
# a full chunk's buffers on a layer-1 pass, so the Monte Carlo's peak grows with the shares,
# and its speed and traced peaks were measured on two CPUs only
_MAX_SHARES = 2


def _power(breadth: int, depth: int) -> int:
    # B^depth nodes per row; a lower bound past depth 64, far over budget for B >= 2
    return breadth ** min(depth, 64)


def _check_budget(request: str, bank: FilterBank, values: int, extra_bytes: int = 0) -> None:
    """Refuse a request whose complex128 ``values`` plus ``extra_bytes`` exceed the budget."""
    _check_bytes(f"{request} with {len(bank.filters)} octaves per node on N={bank.n}",
                 16 * values + extra_bytes)


def _check_profile(bank: FilterBank, n_max: int, request: str | None = None, extra_bytes: int = 0) -> None:
    """The refusals of an energy-only pass, whose deepest formed layer is n_max - 1.

    The count is that layer of one input as complex values, plus the
    caller's ``extra_bytes``, and a refusal names the ``request``, "depth
    <n_max>" by default; the module docstring says how the count compares
    with what the pass holds.
    """
    if n_max < 0:
        raise ValueError("depth must be nonnegative")
    _check_budget(request or f"depth {n_max}", bank, bank.n * _power(len(bank.filters), max(n_max - 1, 0)),
                  extra_bytes)


def _check_tree(f: Signal, bank: FilterBank, lowpass: Spectrum, n_max: int, prune_eps: float) -> None:
    """The refusals of ``scatter``, made before any layer is formed: ``scatter run`` leaves them to it."""
    if n_max < 0:
        raise ValueError("depth must be nonnegative")
    breadth = len(bank.filters)
    # one U and one S row per node, sum_{k <= n_max} B^k nodes
    nodes = n_max + 1 if breadth == 1 else (_power(breadth, n_max + 1) - 1) // (breadth - 1)
    _check_budget(f"depth {n_max}", bank, 2 * bank.n * nodes)
    if not 0.0 <= prune_eps < math.inf:
        raise ValueError("prune_eps must be finite and nonnegative")
    if f.n != bank.n or f.n != lowpass.n:
        raise ValueError("signal, bank and lowpass must share one grid")
    # read_signal's overflow bound holds only while the octave sums stay <= 1
    _refuse_inflated(bank)


def _filter_rows(bank: FilterBank) -> np.ndarray:
    # FFT bin order, ready to multiply against np.fft.fft output
    return np.fft.ifftshift(np.stack([bank.filters[j].coeffs for j in bank.scales]), axes=1)


def _chunks(batch: np.ndarray, filters: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i, the chunk of ``batch`` from row i), in chunks sized for ``filters`` products per row."""
    per_chunk = max(1, _CHUNK_ELEMENTS // (filters * batch.shape[1]))
    for i in range(0, batch.shape[0], per_chunk):
        yield i, batch[i : i + per_chunk]


def _spectra(batch: np.ndarray, filters: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i, FFT of the chunk of ``batch`` from row i), chunked as ``_chunks`` does.

    Each chunk is copied into one complex buffer, sized by the first chunk,
    and transformed in place: numpy's own cast of real rows to complex inside
    ``np.fft.fft`` takes about three times as long as the copy and the
    transform together, for the same bits.  So a chunk's spectra last only
    until the next chunk is asked for.
    """
    staged = None
    for i, chunk in _chunks(batch, filters):
        if staged is None:
            staged = np.empty(chunk.shape, dtype=np.complex128)
        spec = staged[: len(chunk)]
        spec[...] = chunk
        yield i, np.fft.fft(spec, axis=1, out=spec)


def _layer_moduli(spectra: Iterator, filts: np.ndarray, out: np.ndarray | None = None) -> Iterator:
    """(k, the children |row * psi_j| from child row k, their dead products), one chunk of parents at a time.

    ``spectra`` yields (i, the spectra of rows i..), as ``_chunks`` of
    spectra or ``_spectra`` of samples do; row i's children are rows
    i*B..i*B+B-1 of the next layer.  With ``out``, of shape (rows*B, N), the
    children are written to their rows of ``out``; without it, to one chunk
    of moduli that the next chunk overwrites, so the layer is never held
    whole.  The filter products and their inverse transforms share one
    buffer, sized by the first chunk, the largest, and reused by every chunk;
    without ``out`` the moduli take its tail, so a pass allocates once (a
    second buffer left the blocks of a depth-2 estimate faulting heap pages).
    The chunk's complex products, one (children, N) array, are dead once
    their moduli are taken: a consumer may overwrite them until it asks for
    the next chunk.
    """
    nfilt, products, moduli = filts.shape[0], None, None
    for i, spec in spectra:
        if products is None:
            rows, n = len(spec) * nfilt, spec.shape[1]
            tail = 0 if out is not None else (rows + 1) // 2  # complex rows for `rows` float rows
            buffer = np.empty((rows + tail, n), dtype=np.complex128)
            products = buffer[:rows].reshape(len(spec), nfilt, n)
            moduli = buffer[rows:].view(np.float64).reshape(-1, n)
        children = np.multiply(spec[:, None, :], filts[None, :, :], out=products[: len(spec)])
        children = children.reshape(-1, spec.shape[1])
        np.fft.ifft(children, axis=1, out=children)
        k = i * nfilt
        into = moduli[: len(children)] if out is None else out[k : k + len(children)]
        yield k, np.abs(children, out=into), children


def _read_out(spectra: Iterator, phi: np.ndarray, out: np.ndarray, energies: np.ndarray) -> Iterator:
    """``spectra`` passed on unchanged, each chunk read out through the low-pass on its way.

    Rows i.. of ``out`` take the chunk's low-pass rows, the inverse FFT of
    spectrum times ``phi``, and the same rows of ``energies`` their
    energies, so a row's one forward FFT feeds both its readout and, through
    ``_layer_moduli`` downstream, its children.
    """
    for i, spec in spectra:
        rows = np.fft.ifft(spec * phi[None, :], axis=1, out=out[i : i + len(spec)])
        energies[i : i + len(spec)] = _row_energies(rows)
        yield i, spec


class _Nodes(Mapping):
    """Path -> ``Signal`` over one read-only array per layer; ``index`` gives a path's row."""

    def __init__(self, layers: list[np.ndarray], index: dict[Path, int], real: bool) -> None:
        self._layers, self._index, self._real = layers, index, real

    def __getitem__(self, path: Path) -> Signal:
        row, layer = self._index[path], self._layers[len(path)]  # KeyError for an unknown path
        # float64 layers (depth >= 1) hold moduli, real nodes; the root is real when ``real``
        return Signal(layer[row], real=self._real or layer.dtype == np.float64)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True)
class ScatteringResult:
    """Full tree of internal nodes and low-passed outputs.

    ``u`` and ``s`` read as path -> ``Signal`` maps, but hold one read-only
    array per layer: a node's ``Signal`` is built only when its path is read.
    ``layer_energies[k]`` sums ||U[p]f||^2 over every path computed at
    depth k, including paths pruned at that depth; ``output_energies[k]``
    sums ||S[p]f||^2 over retained paths only, so the two disagree
    exactly by what pruning discarded.
    """

    bank: FilterBank
    lowpass: Spectrum
    n_max: int
    prune_eps: float
    u: Mapping[Path, Signal]
    s: Mapping[Path, Signal]
    layer_energies: Mapping[int, float]
    output_energies: Mapping[int, float]
    pruned_mass: float
    pruned_paths: tuple[Path, ...]


def scatter(
    f: Signal,
    bank: FilterBank,
    lowpass: Spectrum,
    n_max: int,
    prune_eps: float = 0.0,
) -> ScatteringResult:
    """Compute the scattering tree of ``f`` to depth ``n_max``.

    Each layer's U and S rows are kept as one read-only array, refused with
    ``ValueError`` unless finite; a node's ``Signal`` is built when it is read.
    Each row is transformed forward once: the pass that reads a layer out
    through the low-pass also forms its children.

    Parameters
    ----------
    f : input signal on the bank's grid.
    bank : analytic filter bank whose squared octave sums stay <= 1, else
        ``BankConditionError``.
    lowpass : output smoothing filter phi_hat on the bank's centered grid.
    n_max : tree depth >= 0; the unpruned tree's U and S nodes, 2 N
        sum_{k <= n_max} B^k complex values, must fit the memory budget.
    prune_eps : relative energy floor, finite and >= 0.  A node whose
        energy falls below prune_eps * ||f||^2 is dropped after being
        counted; zero keeps everything, including exactly silent nodes.
    """
    _check_tree(f, bank, lowpass, n_max, prune_eps)
    breadth = len(bank.filters)
    filts = _filter_rows(bank)
    phi = np.fft.ifftshift(lowpass.coeffs)

    u_layers: list[np.ndarray] = []
    s_layers: list[np.ndarray] = []
    index: dict[Path, int] = {}
    output_energies: dict[int, float] = {}
    pruned_paths: list[Path] = []
    pruned_mass = 0.0

    paths: list[Path] = [()]
    batch = f.samples[None, :]
    layer_energies = {0: float(_row_energies(batch)[0])}
    for depth in range(n_max + 1):
        if depth > 0:
            batch = _frozen(children)
            paths = [p + (j,) for p in paths for j in bank.scales]
            energies = _row_energies(batch)
            layer_energies[depth] = float(np.sum(energies))
            # prune after counting, so discarded mass stays auditable; a zero floor keeps every row
            keep = energies >= prune_eps * layer_energies[0]
            if not keep.all():
                pruned_paths += [p for p, k in zip(paths, keep.tolist()) if not k]
                for e in energies[~keep].tolist():  # one += at a time, in row order
                    pruned_mass += e
                batch = _frozen(batch[keep])
                paths = [p for p, k in zip(paths, keep.tolist()) if k]
        # one pass reads the layer out and forms its children.  The last layer has none, so its
        # chunks are sized for one filter per row, not B.  An emptied layer flows through as zero
        # rows, so deeper layers read 0.0
        outputs, energies = np.empty(batch.shape, dtype=np.complex128), np.empty(len(batch))
        children = np.empty((len(batch) * breadth if depth < n_max else 0, bank.n))
        passes = _read_out(_spectra(batch, breadth if depth < n_max else 1), phi, outputs, energies)
        # run the pass, keeping no chunk's buffers past it
        collections.deque(_layer_moduli(passes, filts, children) if depth < n_max else passes, maxlen=0)
        output_energies[depth] = float(np.sum(energies))
        u_layers.append(batch)
        s_layers.append(_frozen(outputs))
        index.update(zip(paths, range(len(paths))))

    return ScatteringResult(
        bank=bank,
        lowpass=lowpass,
        n_max=n_max,
        prune_eps=prune_eps,
        u=_Nodes(u_layers, index, f.real),
        s=_Nodes(s_layers, index, False),
        layer_energies=layer_energies,
        output_energies=output_energies,
        pruned_mass=pruned_mass,
        pruned_paths=tuple(pruned_paths),
    )


def _child_energies(chunk: np.ndarray, weight: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """sum_j ||row * psi_j||^2 per real row of one ``_layer_moduli`` chunk, without forming the children.

    The modulus keeps energy, so by Parseval each row's children together
    carry sum_w |row_hat(w)|^2 sum_j |psi_j(w)|^2: one forward FFT per row
    in place of B inverse FFTs.  A real row's |row_hat|^2 is even, so its
    half spectrum from ``np.fft.rfft`` carries the sum, against ``weight``,
    sum_j |psi_j|^2 folded onto bins 0..N/2.  The power is weighed in the
    half spectrum's own real parts.  The spectrum, N/2 + 1 complex values
    per row, is written into the front of ``spare``, a contiguous complex
    array of at least as many values, such as the chunk's dead products.
    """
    rows, half = chunk.shape[0], chunk.shape[1] // 2 + 1
    spec = np.fft.rfft(chunk, axis=1, out=spare.reshape(-1)[: rows * half].reshape(rows, half))
    power = np.square(spec.real, out=spec.real)
    np.add(power, np.square(spec.imag, out=spec.imag), out=power)
    out = np.sum(np.multiply(power, weight, out=power), axis=1)
    out /= chunk.shape[1] ** 2
    return out


def _folded(weight: np.ndarray) -> np.ndarray:
    """``weight`` over the FFT bins folded onto bins 0..N/2: bin k gains bin N-k for 0 < k < N/2."""
    half = weight.size // 2
    folded = weight[: half + 1].copy()
    folded[1:half] += weight[:half:-1]
    return folded


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform can say; else all of them
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_profiles(bank: FilterBank, n_max: int, count: int, draw: Callable, deepest_only: bool = False) -> Iterator:
    """(start, energies at layers 0..n_max of inputs start..start+k-1), block by block.

    ``draw(start, k)`` returns the spectra of those k inputs as rows, in FFT
    bin order, so layer 1 takes no forward FFT.  It is called once per
    block, in ascending ``start``, on the calling thread, so a draw may read
    its rows off one shared random stream.  The root's energies are read off
    its spectrum by Parseval.  Every layer k >= 1 is weighed from its
    parent's spectrum against sum_j |psi_j|^2: layer 1 from the root's, each
    deeper one through ``_child_energies`` of the real moduli of layer k - 1,
    chunk by chunk as ``_layer_moduli`` forms them, so layer k's energies do
    not depend on n_max.  Layers 1..n_max-2 are held, one buffer each, sized
    for one block and reused by every block; the deepest formed layer,
    n_max - 1, is weighed a chunk at a time and never held.  A block takes
    ``_BLOCK_ELEMENTS`` values of layer n_max - 1, or one input's if more.
    With ``deepest_only``, as ``stationary.mc_layer_energy`` asks, only row
    n_max of each block's profiles is filled and the others are NaN: the
    held layers 1..n_max-2 are formed but never weighed.

    A block is split into one contiguous share of inputs per usable CPU
    (``os.sched_getaffinity``), at most ``_MAX_SHARES`` and at most one per
    input, and each share runs the serial pass on its own rows of the
    block's buffers: the calling
    thread scores the first share, a thread pool made for the call the
    others, and the calling thread reads every share's result before the
    next draw.  So a call with one input per block, as
    ``layer_energy_profile``, starts no thread, and the pool is shut down
    when the last block is scored or the caller drops the iterator.  Per
    share a block holds one pass's chunk buffers: a full chunk of
    ``_CHUNK_ELEMENTS`` filter products on a layer-1 pass, and on a deeper
    pass, over held float64 rows, its share of one chunk.  Children of a row
    stay contiguous through ``_layer_moduli``, so an input's energies, one
    column, do not depend on its block, share or chunk.
    """
    filts, breadth, n = _filter_rows(bank), len(bank.filters), bank.n
    deepest = _power(breadth, max(n_max - 1, 0))  # layer n_max-1 rows per input
    per_block = min(max(1, _BLOCK_ELEMENTS // (deepest * n)), count)
    layers = [np.empty((per_block * _power(breadth, depth), n)) for depth in range(1, n_max - 1)]
    energies = np.empty(per_block * deepest)  # children energies, one per parent row
    weight = np.sum(filts.real**2 + filts.imag**2, axis=0)
    folded = _folded(weight)
    first = n_max if deepest_only else 0  # the shallowest layer a block's profiles fill

    def score(block: np.ndarray, profiles: np.ndarray, lo: int, hi: int, shares: int) -> None:
        # inputs lo..hi-1 of the block, on their own rows of every buffer
        batch = block[lo:hi]
        for depth in range(1, n_max):
            per_input = _power(breadth, depth)  # layer-depth rows per input
            weighed = energies[lo * per_input : hi * per_input]
            # a layer-1 pass takes a CPU's full chunk; deeper passes share one between the CPUs
            spectra = _chunks(batch, breadth) if depth == 1 else _spectra(batch, breadth * shares)
            batch = layers[depth - 1][lo * per_input : hi * per_input] if depth < n_max - 1 else None
            weigh = depth + 1 >= first
            for k, moduli, products in _layer_moduli(spectra, filts, batch):
                if weigh:
                    weighed[k : k + len(moduli)] = _child_energies(moduli, folded, products)
            # free the pass's buffer now, before the next pass or block's draw: held over,
            # it left each block of a depth-2 estimate faulting fresh heap pages in
            del moduli, products
            if weigh:
                profiles[depth + 1, lo:hi] = weighed.reshape(hi - lo, -1).sum(axis=1)

    cpus = min(_usable_cpus(), _MAX_SHARES, per_block)
    pool = contextlib.nullcontext()
    if cpus > 1:  # imported only where a block splits, so most processes never import it
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(cpus - 1)
    with pool:
        for start in range(0, count, per_block):
            block = draw(start, min(per_block, count - start))
            rows = block.shape[0]
            profiles = np.full((n_max + 1, rows), np.nan)
            if first == 0:
                # sum |spec|^2 / N^2 by Parseval: N is a power of two, so two divisions round as one
                profiles[0] = _row_energies(block) / n
            if first <= 1 <= n_max:
                profiles[1] = np.sum((block.real**2 + block.imag**2) * weight, axis=1) / n**2
            shares = min(cpus, rows)
            bounds = [rows * s // shares for s in range(shares + 1)]
            futures = [pool.submit(score, block, profiles, lo, hi, shares)
                       for lo, hi in zip(bounds[1:-1], bounds[2:])]
            score(block, profiles, bounds[0], bounds[1], shares)
            for future in futures:
                future.result()
            del block  # before the next block's draw
            yield start, profiles


def layer_energy_profile(f: Signal, bank: FilterBank, n_max: int) -> dict[int, float]:
    """Total energy per layer, sum over paths of ||U[p]f||^2, no pruning.

    Cheaper than ``scatter`` when only the energies are needed: nodes are
    never stored, and layer ``n_max`` is never formed.  Every layer below
    the root is weighed from the layer above, its spectrum weighted in
    frequency by sum_j |psi_j|^2, which the modulus's energy conservation
    makes exact; so layer k's value does not depend on ``n_max``.  Layer
    ``n_max - 1``, B^(n_max-1) rows for a bank of B octaves, is weighed a
    chunk at a time as it is formed, so the deepest layer held has
    B^(n_max-2) rows.
    """
    _check_profile(bank, n_max)
    if f.n != bank.n:
        raise ValueError(f"signal length {f.n} does not match bank grid {bank.n}")
    spectrum = np.fft.fft(f.samples[None, :], axis=1)
    ((_, profiles),) = _block_profiles(bank, n_max, 1, lambda start, k: spectrum)
    return {depth: float(value) for depth, value in enumerate(profiles[:, 0])}


@dataclass(frozen=True)
class BalanceReport:
    """Decomposition ||f||^2 = outputs below layer n + energy at layer n."""

    n: int
    total: float
    captured: float
    tail: float
    residual: float
    relative_residual: float


def _partition_defect(bank: FilterBank, lowpass: Spectrum) -> float:
    # the low-pass row first, then the octaves in ascending j; N >= 2 columns add in row order
    rows = np.stack([lowpass.coeffs] + [bank.filters[j].coeffs for j in bank.scales])
    w = np.sum(np.abs(rows) ** 2, axis=0)
    sym = 0.5 * (w + w[reflection_index(bank.n)])
    return float(np.max(np.abs(sym - 1.0)))


def energy_balance(result: ScatteringResult, n: int) -> BalanceReport:
    """Exact conservation check for tight pairs on real input.

    Requires an unpruned tree of depth >= n and a (bank, lowpass) pair
    whose symmetrized squared profiles sum to one on the whole grid;
    otherwise the identity

        ||f||^2 = sum_{|p| < n} ||S[p]f||^2 + sum_{|p| = n} ||U[p]f||^2

    has no reason to hold and the call refuses rather than reporting a
    meaningless residual.
    """
    if result.prune_eps != 0.0:
        raise ValueError("energy balance requires an unpruned tree")
    if not 1 <= n <= result.n_max:
        raise ValueError(f"need 1 <= n <= {result.n_max}, got {n}")
    root = result.u[()]
    if not root.real:
        raise ValueError("energy balance is an identity for real signals")
    defect = _partition_defect(result.bank, result.lowpass)
    if defect > _PARTITION_TOL:
        raise NonTightBankError(
            f"filter pair is not tight: partition defect {defect:.3e} exceeds {_PARTITION_TOL:.1e}"
        )
    total = result.layer_energies[0]
    captured = sum(result.output_energies[k] for k in range(n))
    tail = result.layer_energies[n]
    residual = abs(total - captured - tail)
    return BalanceReport(
        n=n,
        total=total,
        captured=captured,
        tail=tail,
        residual=residual,
        relative_residual=residual / total if total > 0 else 0.0,
    )


def _tight_lowpass(j_max: int, n: int) -> Spectrum:
    w = frequencies(n)
    phi = (np.abs(w) <= 2.0**-j_max).astype(np.complex128)
    phi[w == -(n // 2)] = 1.0
    return Spectrum(phi)


def shannon_tight_pair(j_max: int = 0, n: int = 256, j_min: int | None = None):
    """Octave-indicator bank plus the low-pass that makes it unitary.

    The low-pass passes |w| <= 2^-j_max and also claims the unpaired bin
    at -N/2, which belongs to no octave on the grid; with that bin closed
    the symmetrized profiles partition frequency exactly and the energy
    balance holds to machine precision for real signals.  Returns the bank
    and the low-pass as a ``Spectrum`` on its grid.
    """
    return build_bank(shannon_mother(), j_max, n, j_min=j_min), _tight_lowpass(j_max, n)


def gaussian_output_lowpass(j_max: int, n: int) -> Spectrum:
    """Gaussian readout exp(-(2^j_max * w)^2) on the length-n grid, at the coarsest octave j_max."""
    return gaussian_lowpass(2.0**-j_max, n)


def _output_lowpass(bank: FilterBank, kind: str) -> Spectrum:
    """The readout ``scatter run --lowpass kind`` takes on ``bank``.

    "auto" and "tight" take the indicator low-pass where it closes the bank's
    partition of frequency, as on the shannon bank with every bin covered;
    otherwise "tight" is refused, and "auto", like "gaussian", takes the
    Gaussian.
    """
    if kind != "gaussian":
        low = _tight_lowpass(bank.j_max, bank.n)
        if _partition_defect(bank, low) <= _PARTITION_TOL:
            return low
        if kind == "tight":
            raise ValueError("the tight pair is only defined for the shannon bank")
    return gaussian_output_lowpass(bank.j_max, bank.n)


def export_result(result: ScatteringResult, out_dir: str | os.PathLike) -> None:
    """Write outputs, the layer profile and a manifest under ``out_dir``.

    Files are byte-stable for identical inputs: floats are written in
    shortest round-trip form and the manifest is sorted, with no
    timestamps or environment records.
    """
    out = os.fspath(out_dir)
    for path in sorted(result.s):  # one node built at a time
        label = "_".join(str(j) for j in path) or "root"
        write_signal(os.path.join(out, f"s_{label}.csv"), result.s[path])
    _write_table(os.path.join(out, "profile.csv"), "n,energy", sorted(result.layer_energies.items()))
    manifest = {
        "bank": _recipe(result.bank),
        "n_max": result.n_max,
        "prune_eps": result.prune_eps,
        "signal_energy": result.layer_energies[0],
        "layer_energies": {str(k): v for k, v in result.layer_energies.items()},
        "output_energies": {str(k): v for k, v in result.output_energies.items()},
        "pruned_mass": result.pruned_mass,
        "pruned_paths": [list(p) for p in result.pruned_paths],
        "retained_paths": [list(p) for p in sorted(result.s)],
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
