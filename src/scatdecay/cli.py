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

All outputs are byte-stable for identical inputs: floats are written in
shortest round-trip form, JSON keys are sorted, and nothing records
timestamps or the environment.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .decay import _SLACK_TOL, _check_bound_layer, _refuse_inflated, compute_constants, verify_decay
from .errors import BudgetExceededError, ScatdecayError
from .filterbank import FilterBank, check_asymmetry, check_littlewood_paley, estimate_vanishing_order, load_bank
from .scattering import (
    _PARTITION_TOL, _check_profile, _check_tree, _partition_defect, _tight_lowpass, export_result,
    gaussian_output_lowpass, scatter,
)
from .signals import (
    Signal, Spectrum, _write_json, band_limited_signal, convolve, dft, energy, frequencies, modulus,
    read_signal, write_signal,
)
from .stationary import (
    _check_mc_request, _check_seed, load_model, mc_layer_energy, stationary_bound,
)

__all__ = ["main"]


def _jsonable(value):
    """JSON payloads with non-finite floats spelled out as strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _require_out(args: argparse.Namespace) -> str:
    # checked before any work; the directory itself is made only once every
    # refusal has passed, right before the first file is written
    if not args.out:
        raise ValueError("an output directory is required (--out)")
    return args.out


def _load_bank(args: argparse.Namespace) -> FilterBank:
    if not args.bank:
        raise ValueError("a bank file is required (--bank)")
    return load_bank(args.bank)


def _output_lowpass(bank: FilterBank, kind: str) -> Spectrum:
    # tight when the indicator low-pass closes the bank's partition of frequency,
    # as it does for the shannon profile with every bin covered
    if kind == "gaussian":
        return gaussian_output_lowpass(bank.j_max, bank.n)
    low = _tight_lowpass(bank.j_max, bank.n)
    if _partition_defect(bank, low) <= _PARTITION_TOL:
        return low
    if kind == "tight":
        raise ValueError("the tight pair is only defined for the shannon bank")
    return gaussian_output_lowpass(bank.j_max, bank.n)


def cmd_bank_check(args: argparse.Namespace) -> int:
    bank = _load_bank(args)
    out = _require_out(args)
    reports = [
        check_littlewood_paley(bank),
        check_asymmetry(bank),
        estimate_vanishing_order(bank.mother),
    ]
    os.makedirs(out, exist_ok=True)
    for report in reports:
        _write_json(os.path.join(out, f"check_{report.condition}.json"), _jsonable(report.to_payload()))
        verdict = "PASS" if report.passed else "FAIL"
        where = "" if report.witness_freq is None else f" at w={report.witness_freq:g}"
        print(f"{report.condition}: {verdict} (margin={report.margin:.6g}{where})")
    band = bank.validated_band
    print(f"validated band: {band[0]}..{band[1]}" if band else "validated band: none")
    return 0 if all(r.passed for r in reports) else 1


def cmd_scatter_run(args: argparse.Namespace) -> int:
    bank = _load_bank(args)
    if not args.signal:
        raise ValueError("a signal file is required (--signal)")
    sig = read_signal(args.signal)
    out = _require_out(args)
    low = _output_lowpass(bank, args.lowpass)
    _check_tree(sig, bank, low, args.depth, args.prune_eps)
    # read_signal's overflow bound holds only while the octave sums stay <= 1
    _refuse_inflated(check_littlewood_paley(bank))
    result = scatter(sig, bank, low, args.depth, prune_eps=args.prune_eps)
    export_result(result, out)
    print(
        f"depth={args.depth} paths={len(result.s)} pruned={len(result.pruned_paths)} "
        f"pruned_mass={result.pruned_mass:.6g}"
    )
    return 0


def cmd_decay_verify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    bank = _load_bank(args)
    # a bad or over-budget depth, or a signal off the grid, is refused before the constants or --out
    _check_bound_layer(args.depth)
    _check_profile(bank, args.depth)
    out = _require_out(args)
    sig = read_signal(args.signal) if args.signal else None
    if sig is not None and sig.n != bank.n:
        raise ValueError(f"signal length {sig.n} does not match bank grid {bank.n}")
    constants = compute_constants(bank)
    if sig is None:
        sig = band_limited_signal(bank.n, constants.band, np.random.default_rng(args.seed))
    rows = verify_decay(sig, bank, constants, n_max=args.depth)
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "constants.json"), _jsonable(constants.to_payload()))
    with open(os.path.join(out, "decay.csv"), "w") as fh:
        fh.write("n,empirical,bound,slack\n")
        for row in rows:
            fh.write(f"{row.n},{row.empirical!r},{row.bound!r},{row.slack!r}\n")
    print(
        f"constants: c={constants.c:.6g} C={constants.C:.6g} a={constants.a:.6g} "
        f"r={constants.r:.6g} band={constants.band[0]}..{constants.band[1]}"
    )
    ok = True
    for row in rows:
        good = row.slack >= -_SLACK_TOL
        ok = ok and good
        print(
            f"layer {row.n}: empirical={row.empirical:.6g} bound={row.bound:.6g} "
            f"slack={row.slack:.6g} [{'OK' if good else 'VIOLATED'}]"
        )
    return 0 if ok else 1


def cmd_stationary_run(args: argparse.Namespace) -> int:
    bank = _load_bank(args)
    if not args.model:
        raise ValueError("a model file is required (--model)")
    model = load_model(args.model)
    # refused in the order the run would meet them, but before the constants,
    # the simulation or --out
    _check_mc_request(model, bank, args.depth, args.trials, args.seed)
    _check_bound_layer(args.depth)
    out = _require_out(args)
    constants = compute_constants(bank)
    est = mc_layer_energy(model, bank, args.depth, trials=args.trials, seed=args.seed)
    bound = stationary_bound(model, constants, args.depth)
    ok = est.estimate <= bound + 3.0 * est.stderr
    report = {
        "n": est.n,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "trials": est.trials,
        "seed": est.seed,
        "bound": bound,
        "pass": ok,
    }
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "mc_report.json"), _jsonable(report))
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
    from .filterbank import build_bank, morlet_mother

    out = _require_out(args)
    if args.signal:
        sig = read_signal(args.signal)
    else:
        sig = _default_chirp(512)
    bank = build_bank(morlet_mother(), 0, sig.n)
    if args.scale not in bank.filters:
        raise ValueError(f"scale {args.scale} outside bank range [{bank.j_min}, {bank.j_max}]")
    filtered = convolve(sig, bank.filters[args.scale])
    mod = modulus(filtered)
    low = gaussian_output_lowpass(bank.j_max, sig.n)
    smoothed = convolve(mod, low)
    before = _abs_centroid(dft(filtered).coeffs, sig.n)
    after = _abs_centroid(dft(mod).coeffs, sig.n)

    os.makedirs(out, exist_ok=True)
    write_signal(os.path.join(out, "input.csv"), sig)
    write_signal(os.path.join(out, "filtered.csv"), filtered)
    write_signal(os.path.join(out, "modulus.csv"), mod)
    write_signal(os.path.join(out, "smoothed.csv"), smoothed)
    summary = {
        "scale": args.scale,
        "centroid_filtered": before,
        "centroid_modulus": after,
        "energy_filtered": energy(filtered),
        "energy_modulus": energy(mod),
        "energy_smoothed": energy(smoothed),
    }
    _write_json(os.path.join(out, "summary.json"), _jsonable(summary))
    shifted = after < before
    print(
        f"|w|-centroid: filtered={before:.6g} modulus={after:.6g} "
        f"[{'shifted down' if shifted else 'NOT shifted'}]"
    )
    return 0 if shifted else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatdecay",
        description="Scattering transforms with certified layer-energy decay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bank_out = argparse.ArgumentParser(add_help=False)
    bank_out.add_argument("--bank", help="bank recipe (JSON)")
    bank_out.add_argument("--out", help="output directory")

    bank = sub.add_parser("bank", help="filter bank operations")
    bank_sub = bank.add_subparsers(dest="action", required=True)
    check = bank_sub.add_parser("check", parents=[bank_out], help="run the certification checks")
    check.set_defaults(handler=cmd_bank_check, parser=check)

    scat = sub.add_parser("scatter", help="scattering transforms")
    scat_sub = scat.add_subparsers(dest="action", required=True)
    run = scat_sub.add_parser("run", parents=[bank_out], help="compute a scattering tree")
    run.add_argument("--depth", type=int, default=2, help="tree depth")
    run.add_argument("--signal", help="input signal: CSV, or raw float64 + .meta sidecar")
    run.add_argument("--prune-eps", type=float, default=0.0, dest="prune_eps",
                     help="relative energy floor for pruning")
    run.add_argument("--lowpass", choices=("auto", "gaussian", "tight"), default="auto",
                     help="output smoothing filter")
    run.set_defaults(handler=cmd_scatter_run, parser=run)

    decay = sub.add_parser("decay", help="decay-bound operations")
    decay_sub = decay.add_subparsers(dest="action", required=True)
    verify = decay_sub.add_parser(
        "verify", parents=[bank_out], help="constants plus bound-vs-empirical table"
    )
    verify.add_argument("--depth", type=int, default=4, help="deepest layer to verify")
    verify.add_argument("--seed", type=int, default=0, help="RNG seed of the synthesized input (>= 0)")
    verify.add_argument("--signal", help="real band-limited input (default: synthesized)")
    verify.set_defaults(handler=cmd_decay_verify, parser=verify)

    stat = sub.add_parser("stationary", help="stationary-model operations")
    stat_sub = stat.add_subparsers(dest="action", required=True)
    srun = stat_sub.add_parser(
        "run", parents=[bank_out], help="Monte Carlo layer energy against the bound"
    )
    srun.add_argument("--depth", type=int, default=2, help="layer to estimate")
    srun.add_argument("--seed", type=int, default=0, help="RNG seed of the trials (>= 0)")
    srun.add_argument("--model", help="stationary model (JSON)")
    srun.add_argument("--trials", type=int, default=200, help="Monte Carlo trials")
    srun.set_defaults(handler=cmd_stationary_run, parser=srun)

    demo = sub.add_parser("demo", help="illustrations")
    demo_sub = demo.add_subparsers(dest="action", required=True)
    shift = demo_sub.add_parser(
        "modulus-shift", help="how the modulus moves a chirp's spectrum toward zero"
    )
    shift.add_argument("--signal", help="input signal (default: built-in chirp)")
    shift.add_argument("--out", help="output directory")
    shift.add_argument("--scale", type=int, default=0, help="octave of the analyzing filter")
    shift.set_defaults(handler=cmd_demo_modulus_shift, parser=shift)

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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
