"""Operation streams for the three benchmark workloads.

Every workload is an endless sequence of cycles, and every cycle holds the
same operation kinds in the same order: which command, grid size, depth,
low-pass and how many refusals.  The seed only draws the parameters inside
each slot: wavelet centers and widths, Shannon octave ranges, refusal
variants, signals, model parameters and the per-operation CLI seed.

A cycle takes about 20 s on a 2-core box, and a run holds a number of
whole cycles fixed by its length argument, never by the clock.  That keeps
the count of each kind, and so the operation that each latency quantile
falls on, the same from run to run.  Kinds are chosen so that both the
median and the tail (the 11th-slowest operation) fall inside the largest
group of alike operations, not on the edge between two groups.

An operation carries the input files it needs as in-memory payloads;
run.py writes them just before the call, so the program under test only
ever sees the generated files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, product

import numpy as np


@dataclass(frozen=True)
class Op:
    """One call of ``scatdecay.cli.main``.

    ``words`` are the command words and flags that do not name a file;
    ``bank``, ``model`` and ``signal`` are the payloads of the files run.py
    writes and passes as ``--bank``, ``--model`` and ``--signal``.
    ``refusal`` names the error class the call must be refused with.
    """

    kind: str
    words: tuple[str, ...]
    bank: dict
    model: dict | None = None
    signal: np.ndarray | None = None
    refusal: str | None = None

    def flag(self, name: str) -> str | None:
        if name in self.words:
            return self.words[self.words.index(name) + 1]
        return None


def bank_recipe(name: str, params: dict, j_max: int, n: int, j_min: int | None = None) -> dict:
    return {"mother": {"name": name, "params": params}, "J": j_max, "j_min": j_min, "N": n}


def octaves(recipe: dict) -> int:
    """Number of octaves the bank keeps, j_min..J (default j_min as in build_bank)."""
    j_min = recipe["j_min"]
    if j_min is None:
        j_min = recipe["J"] - math.ceil(math.log2(recipe["N"])) + 1
    return recipe["J"] - j_min + 1


def _morlet(rng: np.random.Generator) -> dict:
    return {"center": float(rng.uniform(2.5, 3.5)), "width": float(rng.uniform(0.8, 1.2))}


def _pool(rng: np.random.Generator, items: list):
    """Draw ``items`` in a seeded order without replacement, then start over."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def _spread(groups: list[list]) -> list:
    """Merge groups into one sequence with each group's items evenly spaced."""
    keyed = [((i + 0.5) / len(g), k, item) for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def real_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real signal with random coefficients on every bin 2..N/2-1."""
    coeffs = np.zeros(n // 2 + 1, dtype=np.complex128)
    coeffs[2 : n // 2] = rng.standard_normal(n // 2 - 2) + 1j * rng.standard_normal(n // 2 - 2)
    return np.fft.irfft(coeffs, n) * math.sqrt(n)


# ---------------------------------------------------------------------------
# certify: `decay verify --depth 3` on recipes that do not repeat in a cycle.
#
# 54 operations: 34 at N=256 (26 Morlet, 8 Shannon), 3 at N=1024 (2 Morlet,
# 1 Shannon), 2 at N=2048 (1 each), 10 refusals, and 5 `bank check` calls,
# the only command that runs check_asymmetry.  The median and the tail both
# fall among the N=256 `decay verify` operations.

_REFUSALS = ("even_morlet", "morlet_first_order", "inflated", "spiky", "stranded")


def _shannon_octaves(n: int) -> list[tuple[int, int]]:
    """(J, j_min) pairs that all certify: J in -3..2, j_min up to 2 octaves finer than default.

    At most 12 octaves, the tree budget's breadth limit.
    """
    log_n = int(math.log2(n))
    return [(j, j - log_n + 1 - finer) for j, finer in product(range(-3, 3), range(3))
            if log_n + finer <= 12]


def _refusal(kind: str, rng: np.random.Generator, spiky_n, stranded) -> tuple[dict, str]:
    """One of the refusal cases of tests/test_decay.py and the class it must raise."""
    if kind == "even_morlet":
        return bank_recipe("even_morlet", _morlet(rng), 0, 256), "WeakAsymmetryError"
    if kind == "morlet_first_order":
        return bank_recipe("morlet_first_order", _morlet(rng), 0, 256), "VanishingOrderError"
    if kind == "inflated":
        amp = math.sqrt(2.0) * float(rng.uniform(1.1, 1.2))
        return bank_recipe("bandpass", {"lo": 1.0, "hi": 2.0, "amplitude": amp}, 0, 256), "BankConditionError"
    if kind == "spiky":
        return bank_recipe("bandpass", {"lo": 1.5 - 1e-9, "hi": 1.5}, 0, next(spiky_n)), "DegenerateOctaveError"
    j_max, n = next(stranded)
    return bank_recipe("morlet", {}, j_max, n, j_min=j_max - 1), "CoverageHoleError"


def _decay_words(rng: np.random.Generator) -> tuple[str, ...]:
    return ("decay", "verify", "--depth", "3", "--seed", str(int(rng.integers(2**31))))


def _bank_check(rng: np.random.Generator, n: int) -> Op:
    if rng.random() < 0.5:
        return Op(f"check-morlet-{n}", ("bank", "check"), bank_recipe("morlet", _morlet(rng), 0, n))
    choices = _shannon_octaves(n)
    j_max, j_min = choices[rng.integers(len(choices))]
    return Op(f"check-shannon-{n}", ("bank", "check"), bank_recipe("shannon", {}, j_max, n, j_min))


def certify_cycles(rng: np.random.Generator):
    shannon = {n: _pool(rng, _shannon_octaves(n)) for n in (256, 1024, 2048)}
    check_n = _pool(rng, [256, 1024, 2048])
    spiky_n = _pool(rng, [256, 512, 1024, 2048, 4096])
    stranded = _pool(rng, [(j, n) for j in (6, 7, 8) for n in (64, 128)])
    refusal_kinds = count()
    for _ in count():
        groups = []
        for n, morlets, shannons in ((256, 26, 8), (1024, 2, 1), (2048, 1, 1)):
            group = [Op(f"morlet-{n}", _decay_words(rng), bank_recipe("morlet", _morlet(rng), 0, n))
                     for _ in range(morlets)]
            for _ in range(shannons):
                j_max, j_min = next(shannon[n])
                group.append(Op(f"shannon-{n}", _decay_words(rng),
                                bank_recipe("shannon", {}, j_max, n, j_min)))
            groups.append(_spread([group[:morlets], group[morlets:]]))
        refusals = []
        for _ in range(10):
            kind = _REFUSALS[next(refusal_kinds) % len(_REFUSALS)]
            recipe, error = _refusal(kind, rng, spiky_n, stranded)
            refusals.append(Op(f"refuse-{kind}", _decay_words(rng), recipe, refusal=error))
        checks = [_bank_check(rng, next(check_n)) for _ in range(5)]
        yield _spread(groups + [refusals, checks])


def certify_warmups(rng: np.random.Generator) -> list[Op]:
    # an octave range outside the cycle pools, so no warm-up repeats a timed recipe
    recipe = bank_recipe("shannon", {}, 3, 256, j_min=-5)
    return [Op("shannon-256", ("decay", "verify", "--depth", "3", "--seed", "1"), recipe),
            Op("check-shannon-256", ("bank", "check"), recipe)]


# ---------------------------------------------------------------------------
# tree: `scatter run`, the write path.
#
# 31 operations: the three big trees (depth 4 at N=256 with Morlet and the
# Gaussian low-pass and with Shannon and the tight one, depth 3 at N=1024
# with the tight pair), four pruned trees that are cheaper than the rest,
# and 24 depth-2 Morlet trees at N=1024, among which both the median and the
# tail fall.


def _tree_op(rng, kind: str, mother: str, n: int, depth: int, lowpass: str,
             prune: tuple[float, float] | None = None) -> Op:
    params = _morlet(rng) if mother == "morlet" else {}
    words = ["scatter", "run", "--depth", str(depth), "--lowpass", lowpass]
    if prune is not None:
        # a log-uniform relative floor in [10^lo, 10^hi]; these prune most
        # deep nodes but never a whole layer
        words += ["--prune-eps", repr(float(10.0 ** rng.uniform(*prune)))]
    return Op(kind, tuple(words), bank_recipe(mother, params, 0, n), signal=real_signal(rng, n))


def tree_cycles(rng: np.random.Generator):
    for _ in count():
        common = [_tree_op(rng, "morlet-d2-1024", "morlet", 1024, 2, "gaussian") for _ in range(24)]
        big = [
            _tree_op(rng, "morlet-d4-256", "morlet", 256, 4, "gaussian"),
            _tree_op(rng, "shannon-tight-d4-256", "shannon", 256, 4, "tight"),
            _tree_op(rng, "shannon-tight-d3-1024", "shannon", 1024, 3, "tight"),
        ]
        pruned = [
            _tree_op(rng, "morlet-d4-256-pruned", "morlet", 256, 4, "gaussian", (-6.0, -5.0)),
            _tree_op(rng, "morlet-d3-1024-pruned", "morlet", 1024, 3, "gaussian", (-4.5, -3.5)),
            _tree_op(rng, "morlet-d4-256-pruned", "morlet", 256, 4, "gaussian", (-6.0, -5.0)),
            _tree_op(rng, "morlet-d3-1024-pruned", "morlet", 1024, 3, "gaussian", (-4.5, -3.5)),
        ]
        yield _spread([common, big, pruned])


def tree_warmups(rng: np.random.Generator) -> list[Op]:
    return [_tree_op(rng, "shannon-tight-d2-256", "shannon", 256, 2, "tight")]


# ---------------------------------------------------------------------------
# monte_carlo: `stationary run --trials 2000` on two fixed N=128 recipes.
#
# 20 operations: every (bank, model) pair three times at depth 2, and two
# pairs at depth 3.  The median and the tail fall among the depth-2 operations.  The
# untimed warm-up runs 200 trials, to keep set-up short.

MC_TRIALS = 2000
_MC_BANKS = (bank_recipe("shannon", {}, 0, 128), bank_recipe("morlet", {"center": 3.0, "width": 1.0}, 0, 128))
_MC_MODELS = ("white", "ar1", "filtered_noise")
_MC_DEEP = ((_MC_BANKS[0], "white"), (_MC_BANKS[1], "filtered_noise"))


def _model(rng: np.random.Generator, kind: str) -> dict:
    sigma = float(rng.uniform(0.5, 2.0))
    if kind == "white":
        params = {"sigma": sigma}
    elif kind == "ar1":
        params = {"sigma": sigma, "rho": float(rng.uniform(0.3, 0.9))}
    else:
        band = {"name": "band", "lo": float(rng.integers(2, 9)), "hi": float(rng.integers(20, 61))}
        params = {"sigma": sigma, "filter": band}
    return {"kind": kind, "params": params, "N": 128}


def _mc_op(rng, bank: dict, kind: str, depth: int, trials: int = MC_TRIALS) -> Op:
    words = ("stationary", "run", "--trials", str(trials), "--depth", str(depth),
             "--seed", str(int(rng.integers(2**31))))
    return Op(f"{bank['mother']['name']}-{kind}-d{depth}", words, bank, model=_model(rng, kind))


def mc_cycles(rng: np.random.Generator):
    for _ in count():
        shallow = [_mc_op(rng, bank, kind, 2) for _ in range(3) for bank in _MC_BANKS for kind in _MC_MODELS]
        deep = [_mc_op(rng, bank, kind, 3) for bank, kind in _MC_DEEP]
        yield _spread([shallow, deep])


def mc_warmups(rng: np.random.Generator) -> list[Op]:
    return [_mc_op(rng, _MC_BANKS[0], "white", 2, trials=200)]


# name -> (cycle generator, warm-up operations), each drawn from a seeded generator
WORKLOADS = {
    "certify": (certify_cycles, certify_warmups),
    "tree": (tree_cycles, tree_warmups),
    "monte_carlo": (mc_cycles, mc_warmups),
}
