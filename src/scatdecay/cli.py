"""Command-line front end.

Commands mirror the library's workflow: certify a bank, run a transform,
verify the decay bound, Monte Carlo a stationary model, and a small demo
of why the modulus pushes energy toward zero frequency.

Exit codes are part of the contract:

    0   everything ran and every checked condition passed
    1   a condition failed or the bank cannot support the machinery
    2   unreadable or malformed input (files, flags, formats)
    3   the request's arrays exceed the memory budget: the nodes of scatter,
        decay and stationary, or a bank's or model's own arrays

A bank that builds always gets a verdict: ``bank check`` exits 0 or 1 and
writes its three reports, and ``decay verify`` and ``stationary run`` exit
0, 1 or 3; exit 2 is left to files, flags and recipes that cannot be read
or built.

All outputs are byte-stable for identical inputs: every file is written
through ``signals``, which owns the formats (floats in shortest round-trip
form, sorted JSON keys, non-finite floats as strings), and nothing records
timestamps or the environment.  No command formats or opens a file itself.
Every file is read through ``signals`` too: a signal by ``read_signal``, and
a bank or model recipe by its one JSON reader, which also builds the bank or
model.  Both read inside one wrapper, so every refusal of a file's content,
or of what it describes, reads "<what> file <path>: <reason>", exit 2.

Each refusal has one owner.  The subcommand's parser refuses a missing or
empty required flag and an unknown one; the library function a command
calls makes its own refusals, and a command checks up front only what would
otherwise be refused after costly work, such as the constants.  No command
makes a directory: the writer of a command's first file makes ``--out``,
so it appears only once every refusal has passed.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, astuple

import numpy as np

from .decay import _SLACK_TOL, _check_bound_layer, _check_signal, compute_constants, verify_decay
from .errors import BudgetExceededError, ScatdecayError
from .filterbank import (
    build_bank, check_asymmetry, check_littlewood_paley, estimate_vanishing_order, load_bank, morlet_mother,
)
from .scattering import _check_profile, _output_lowpass, export_result, gaussian_output_lowpass, scatter
from .signals import (
    Signal, _reading, _write_json, _write_table, band_limited_signal, convolve, dft, energy,
    frequencies, modulus, read_signal, write_signal,
)
from .stationary import (
    _check_mc_request, _check_seed, load_model, mc_layer_energy, stationary_bound,
)

__all__ = ["main"]


def _path(value: str) -> str:
    # the type of every path flag, so its parser refuses an empty one as it does a missing required one
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def cmd_bank_check(args: argparse.Namespace) -> int:
    bank = load_bank(args.bank)
    reports = [
        check_littlewood_paley(bank),
        check_asymmetry(bank),
        estimate_vanishing_order(bank.mother),
    ]
    for report in reports:
        _write_json(os.path.join(args.out, f"check_{report.condition}.json"), report.to_payload())
        verdict = "PASS" if report.passed else "FAIL"
        where = "" if report.witness_freq is None else f" at w={report.witness_freq:g}"
        print(f"{report.condition}: {verdict} (margin={report.margin:.6g}{where})")
    band = bank.validated_band
    print(f"validated band: {band[0]}..{band[1]}" if band else "validated band: none")
    return 0 if band is not None and all(r.passed for r in reports) else 1


def cmd_scatter_run(args: argparse.Namespace) -> int:
    bank = load_bank(args.bank)
    sig = read_signal(args.signal)
    low = _output_lowpass(bank, args.lowpass)
    # scatter makes its own refusals, an inflated bank's included, before any layer
    result = scatter(sig, bank, low, args.depth, prune_eps=args.prune_eps)
    export_result(result, args.out)
    print(
        f"depth={args.depth} paths={len(result.s)} pruned={len(result.pruned_paths)} "
        f"pruned_mass={result.pruned_mass:.6g}"
    )
    return 0


def cmd_decay_verify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    bank = load_bank(args.bank)
    # a bad or over-budget depth, or a signal verify_decay would refuse, is refused before the constants
    _check_bound_layer(args.depth)
    _check_profile(bank, args.depth)
    sig = read_signal(args.signal) if args.signal else None
    if sig is not None:
        with _reading(args.signal, "signal"):
            _check_signal(sig, bank)
    constants = compute_constants(bank)
    if sig is None:
        sig = band_limited_signal(bank.n, constants.band, np.random.default_rng(args.seed))
    rows = verify_decay(sig, bank, constants, n_max=args.depth)
    _write_json(os.path.join(args.out, "constants.json"), constants.to_payload())
    _write_table(os.path.join(args.out, "decay.csv"), "n,empirical,bound,slack", map(astuple, rows))
    print(
        f"constants: c={constants.c:.6g} C={constants.C:.6g} a={constants.a:.6g} "
        f"r={constants.r:.6g} band={constants.band[0]}..{constants.band[1]}"
    )
    # a share of ||f||^2, as the energies and bounds are, so scaling the input moves no verdict
    ok, tol = True, _SLACK_TOL * energy(sig)
    for row in rows:
        good = row.slack >= -tol
        ok = ok and good
        print(
            f"layer {row.n}: empirical={row.empirical:.6g} bound={row.bound:.6g} "
            f"slack={row.slack:.6g} [{'OK' if good else 'VIOLATED'}]"
        )
    return 0 if ok else 1


def cmd_stationary_run(args: argparse.Namespace) -> int:
    bank = load_bank(args.bank)
    model = load_model(args.model)
    # refused in the order the run would meet them, but before the constants or the simulation
    _check_mc_request(model, bank, args.depth, args.trials, args.seed)
    _check_bound_layer(args.depth)
    constants = compute_constants(bank)
    est = mc_layer_energy(model, bank, args.depth, trials=args.trials, seed=args.seed)
    bound = stationary_bound(model, constants, args.depth)
    ok = est.estimate <= bound + 3.0 * est.stderr
    _write_json(os.path.join(args.out, "mc_report.json"), {**asdict(est), "bound": bound, "pass": ok})
    print(
        f"layer {est.n}: estimate={est.estimate:.6g} (stderr {est.stderr:.3g}, "
        f"{est.trials} trials) bound={bound:.6g} [{'OK' if ok else 'VIOLATED'}]"
    )
    return 0 if ok else 1


def _default_chirp(n: int) -> Signal:
    # frequency sweeps 2 -> 6 over one period; mean frequency 4 is an
    # integer, so the phase closes and the signal is periodic
    t = np.arange(n) / n
    return Signal(np.cos(2.0 * np.pi * (2.0 * t + 2.0 * t**2)), real=True)


def _abs_centroid(coeffs: np.ndarray, n: int) -> float:
    w = np.abs(frequencies(n))
    power = np.abs(coeffs) ** 2
    return float(np.sum(w * power) / np.sum(power))


def cmd_demo_modulus_shift(args: argparse.Namespace) -> int:
    sig = read_signal(args.signal) if args.signal else _default_chirp(512)
    # the bank is built on the signal's N, so only a read signal can be refused here, naming its file
    with _reading(args.signal, "signal"):
        bank = build_bank(morlet_mother(), 0, sig.n)
    if args.scale not in bank.filters:
        raise ValueError(f"scale {args.scale} outside bank range [{bank.j_min}, {bank.j_max}]")
    filtered = convolve(sig, bank.filters[args.scale])
    mod = modulus(filtered)
    low = gaussian_output_lowpass(bank.j_max, sig.n)
    smoothed = convolve(mod, low)
    before = _abs_centroid(dft(filtered).coeffs, sig.n)
    after = _abs_centroid(dft(mod).coeffs, sig.n)

    write_signal(os.path.join(args.out, "input.csv"), sig)
    write_signal(os.path.join(args.out, "filtered.csv"), filtered)
    write_signal(os.path.join(args.out, "modulus.csv"), mod)
    write_signal(os.path.join(args.out, "smoothed.csv"), smoothed)
    summary = {
        "scale": args.scale,
        "centroid_filtered": before,
        "centroid_modulus": after,
        "energy_filtered": energy(filtered),
        "energy_modulus": energy(mod),
        "energy_smoothed": energy(smoothed),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    shifted = after < before
    print(
        f"|w|-centroid: filtered={before:.6g} modulus={after:.6g} "
        f"[{'shifted down' if shifted else 'NOT shifted'}]"
    )
    return 0 if shifted else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: every parse makes its own namespace, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="scatdecay",
        description="Scattering transforms with certified layer-energy decay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, group_help, action, handler, action_help, parents=()):
        actions = sub.add_parser(group, help=group_help).add_subparsers(dest="action", required=True)
        cmd = actions.add_parser(action, parents=list(parents), help=action_help)
        cmd.set_defaults(handler=handler, parser=cmd)
        return cmd

    bank_out = argparse.ArgumentParser(add_help=False)
    bank_out.add_argument("--bank", required=True, type=_path, help="bank recipe (JSON)")
    bank_out.add_argument("--out", required=True, type=_path, help="output directory")

    command("bank", "filter bank operations", "check", cmd_bank_check, "run the certification checks",
            [bank_out])

    run = command("scatter", "scattering transforms", "run", cmd_scatter_run, "compute a scattering tree",
                  [bank_out])
    run.add_argument("--depth", type=int, default=2, help="tree depth")
    run.add_argument("--signal", required=True, type=_path,
                     help="input signal: CSV, or raw float64 + .meta sidecar")
    run.add_argument("--prune-eps", type=float, default=0.0, dest="prune_eps",
                     help="relative energy floor for pruning")
    run.add_argument("--lowpass", choices=("auto", "gaussian", "tight"), default="auto",
                     help="output smoothing filter")

    verify = command("decay", "decay-bound operations", "verify", cmd_decay_verify,
                     "constants plus bound-vs-empirical table", [bank_out])
    verify.add_argument("--depth", type=int, default=4, help="deepest layer to verify")
    verify.add_argument("--seed", type=int, default=0, help="RNG seed of the synthesized input (>= 0)")
    verify.add_argument("--signal", type=_path, help="real band-limited input (default: synthesized)")

    srun = command("stationary", "stationary-model operations", "run", cmd_stationary_run,
                   "Monte Carlo layer energy against the bound", [bank_out])
    srun.add_argument("--depth", type=int, default=2, help="layer to estimate")
    srun.add_argument("--seed", type=int, default=0, help="RNG seed of the trials (>= 0)")
    srun.add_argument("--model", required=True, type=_path, help="stationary model (JSON)")
    srun.add_argument("--trials", type=int, default=200, help="Monte Carlo trials")

    shift = command("demo", "illustrations", "modulus-shift", cmd_demo_modulus_shift,
                    "how the modulus moves a chirp's spectrum toward zero")
    shift.add_argument("--signal", type=_path, help="input signal (default: built-in chirp)")
    shift.add_argument("--out", required=True, type=_path, help="output directory")
    shift.add_argument("--scale", type=int, default=0, help="octave of the analyzing filter")

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        # the subcommand's parser reports it, so the usage line lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScatdecayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
