"""Per-operation correctness checks, and a self-check that they bite.

``check(op, code, stderr, out)`` returns None when the call did what its
operation demands, or a one-line reason when it did not.  Any reason counts
the operation as failed.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
from dataclasses import replace

from workloads import Op, octaves

SLACK_TOL = 1e-8          # decay verify's default slack tolerance
SHANNON_TOL = 1e-9        # acceptance criterion 3
BALANCE_TOL = 1e-9        # energy_balance's default tolerance
SHANNON_CONSTANTS = {"c": 0.5, "C": 1.0, "delta": 0.5, "a": 2.0 / math.sqrt(3.0)}

# The CLI prints "error: <message>"; these are the messages each class raises.
REFUSAL_MESSAGES = {
    "WeakAsymmetryError": re.compile(r"^error: first-moment rate c = "),
    "VanishingOrderError": re.compile(r"^error: near-zero decay order "),
    "BankConditionError": re.compile(r"^error: squared sums exceed one "),
    "DegenerateOctaveError": re.compile(r"^error: degenerate octave: "),
    "CoverageHoleError": re.compile(
        r"^error: (bank has no validated band|dyadic sum vanishes|no octave mass)"),
}


def check(op: Op, code: int, stderr: str, out: str) -> str | None:
    if op.refusal is not None:
        if code != 1:
            return f"expected refusal {op.refusal} with exit 1, got exit {code}"
        if not REFUSAL_MESSAGES[op.refusal].search(stderr.strip()):
            return f"expected {op.refusal} in stderr, got {stderr.strip()[:80]!r}"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()[:80]}"
    try:
        checker = {"bank": _check_bank, "decay": _check_decay, "scatter": _check_tree, "stationary": _check_mc}
        return checker[op.words[0]](op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


BANK_CONDITIONS = ("littlewood_paley", "asymmetry", "vanishing_order")


def _check_bank(op: Op, out: str) -> str | None:
    if sorted(os.listdir(out)) != sorted(f"check_{c}.json" for c in BANK_CONDITIONS):
        return f"bank check wrote {sorted(os.listdir(out))}"
    for condition in BANK_CONDITIONS:
        with open(os.path.join(out, f"check_{condition}.json")) as fh:
            report = json.load(fh)
        if report["condition"] != condition or report["passed"] is not True:
            return f"check_{condition}.json does not report a pass"
        # an infinite margin (an identically-zero Shannon mother) is written as a string
        if not float(report["margin"]) >= -report["tolerance"]:
            return f"{condition} passed with margin {report['margin']!r} below -tolerance"
    return None


def _check_decay(op: Op, out: str) -> str | None:
    with open(os.path.join(out, "decay.csv")) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "n,empirical,bound,slack":
        return f"decay.csv header {lines[0]!r}"
    depth = int(op.flag("--depth"))
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(2, depth + 1)):
        return "decay.csv layers do not run 2..depth"
    for n, empirical, bound, slack in rows:
        if float(slack) < -SLACK_TOL:
            return f"layer {n} violates the bound: slack {slack}"
        if float(slack) != float(bound) - float(empirical):
            return f"layer {n} slack is not bound - empirical"
    with open(os.path.join(out, "constants.json")) as fh:
        const = json.load(fh)
    c, big_c = const["c"], const["C"]
    if not (c > 0 and big_c > c * c):
        return f"constants out of range: c={c} C={big_c}"
    if not math.isclose(const["a"], 1.0 / math.sqrt(1.0 - c * c / big_c), rel_tol=1e-12):
        return "a is not 1/sqrt(1 - c^2/C)"
    if op.bank["mother"]["name"] == "shannon":
        for key, target in SHANNON_CONSTANTS.items():
            if abs(const[key] - target) > SHANNON_TOL:
                return f"Shannon {key} = {const[key]!r}, closed form {target!r}"
    return None


def _label(path: list[int]) -> str:
    return "root" if not path else "_".join(str(j) for j in path)


def _check_tree(op: Op, out: str) -> str | None:
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    depth = int(op.flag("--depth"))
    retained = manifest["retained_paths"]
    pruned = manifest["pruned_paths"]
    files = {name for name in os.listdir(out) if name.startswith("s_") and name.endswith(".csv")}
    if files != {f"s_{_label(p)}.csv" for p in retained}:
        return f"{len(files)} s_*.csv files for {len(retained)} retained paths"
    # every computed node is retained or pruned; children exist only under retained parents
    computed = 1 + octaves(op.bank) * sum(1 for p in retained if len(p) < depth)
    if len(retained) + len(pruned) != computed:
        return f"retained {len(retained)} + pruned {len(pruned)} != {computed} computed paths"
    if op.flag("--prune-eps") is None and len(retained) != computed:
        return "an unpruned tree lost paths"
    if op.flag("--lowpass") == "tight" and op.flag("--prune-eps") is None:
        total = manifest["signal_energy"]
        outputs, layers = manifest["output_energies"], manifest["layer_energies"]
        for n in range(1, depth + 1):
            captured = sum(outputs[str(k)] for k in range(n))
            residual = abs(total - captured - layers[str(n)])
            if residual > BALANCE_TOL * total:
                return f"energy identity broken at layer {n}: residual {residual:.3e}"
    return None


def _check_mc(op: Op, out: str) -> str | None:
    with open(os.path.join(out, "mc_report.json")) as fh:
        report = json.load(fh)
    if report["pass"] is not True:
        return "mc_report.json pass flag is not true"
    expected = {"n": int(op.flag("--depth")), "trials": int(op.flag("--trials")),
                "seed": int(op.flag("--seed"))}
    for key, value in expected.items():
        if report[key] != value:
            return f"mc_report.json {key} = {report[key]!r}, expected {value!r}"
    if not report["estimate"] <= report["bound"] + 3.0 * report["stderr"]:
        return "estimate exceeds bound + 3 stderr"
    return None


# ---------------------------------------------------------------------------
# Self-check: corrupt a good output in ways the checker must notice.


def _edit_json(path: str, edit) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _corruptions(op: Op, out: str):
    """(description, function that damages the output in ``out``) pairs."""
    command = op.words[0]
    if command == "bank":
        yield "asymmetry not passed", lambda: _edit_json(
            os.path.join(out, "check_asymmetry.json"), lambda p: p.__setitem__("passed", False))
        yield "Littlewood-Paley margin below its tolerance", lambda: _edit_json(
            os.path.join(out, "check_littlewood_paley.json"),
            lambda p: p.__setitem__("margin", -2.0 * p["tolerance"]))
    elif command == "decay":
        def bad_slack():
            path = os.path.join(out, "decay.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            n, empirical, _, _ = lines[-1].split(",")
            bound = float(empirical) - 1e-3
            lines[-1] = f"{n},{empirical},{bound!r},{bound - float(empirical)!r}"
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        yield "decay.csv with a violated bound", bad_slack
        yield "Shannon c off by 2e-9", lambda: _edit_json(
            os.path.join(out, "constants.json"), lambda p: p.__setitem__("c", p["c"] + 2e-9))
    elif command == "scatter":
        def drop_output():
            os.remove(os.path.join(out, sorted(f for f in os.listdir(out) if f.startswith("s_"))[-1]))
        yield "one s_*.csv missing", drop_output
        yield "a retained path moved to pruned", lambda: _edit_json(
            os.path.join(out, "manifest.json"),
            lambda p: p["pruned_paths"].append(p["retained_paths"].pop()))
        def shift_energy(p):
            p["output_energies"]["1"] += 1e-6 * p["signal_energy"]
        yield "layer-1 output energy off by 1e-6 of the total", lambda: _edit_json(
            os.path.join(out, "manifest.json"), shift_energy)
    else:
        yield "pass flag false", lambda: _edit_json(
            os.path.join(out, "mc_report.json"), lambda p: p.__setitem__("pass", False))
        yield "fewer trials than asked", lambda: _edit_json(
            os.path.join(out, "mc_report.json"), lambda p: p.__setitem__("trials", p["trials"] - 1))


def self_check(op: Op, code: int, stderr: str, out: str, scratch: str) -> list[str]:
    """Return the problems found; empty when every corruption is rejected.

    ``op`` must have passed ``check``; each corruption is applied to a fresh
    copy of its output in ``scratch``.
    """
    problems = []
    if check(op, code, stderr, out) is not None:
        return [f"the uncorrupted output already fails: {check(op, code, stderr, out)}"]
    for what, corrupt in _corruptions(op, scratch):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(out, scratch)
        corrupt()
        if check(op, code, stderr, scratch) is None:
            problems.append(f"accepted corrupted output: {what}")
    shutil.rmtree(scratch, ignore_errors=True)
    if check(op, 1, stderr, out) is None:
        problems.append("accepted a nonzero exit code")
    wrong = replace(op, refusal="WeakAsymmetryError")
    if check(wrong, 1, "error: degenerate octave: c^2 = 1 reaches C = 1", out) is None:
        problems.append("accepted a refusal of the wrong error class")
    return problems
