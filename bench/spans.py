"""Spans around the public functions of each scatdecay module, from outside.

``Tracer.install`` replaces, in every layer module's namespace, each name
bound to a public scatdecay function (one listed in its home module's
``__all__``) with a timing wrapper.  Callers resolve names in their own
module, so wrapping ``scatdecay.cli.compute_constants`` and
``scatdecay.decay.initialize_lowpass`` separately catches both the CLI's
call and the sub-steps inside ``compute_constants``.  Nothing under
``src/`` is changed; ``uninstall`` restores every original.

A span records its name, start, end, parent span and operation id, plus a
few counters read from the call's arguments or result.  Spans stay in
memory; ``summarize`` turns them into per-operation layer metrics.
"""
from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

LAYERS = ("cli", "signals", "filterbank", "decay", "scattering", "stationary")
REFUSAL_CLASSES = ("WeakAsymmetryError", "VanishingOrderError", "BankConditionError",
                   "DegenerateOctaveError", "CoverageHoleError")


@dataclass
class Span:
    op: int
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict = field(default_factory=dict)


def _scatter_rows(args, result) -> dict:
    # modulus rows computed: every retained node above the last layer has one child per octave
    bank, depth = args[1], args[3]
    rows = len(bank.filters) * sum(1 for p in result.u if len(p) < depth)
    return {"scattering.rows": rows, "scattering.bytes_computed": rows * bank.n * 16}


def _profile_rows(args, result) -> dict:
    bank, depth = args[1], args[2]
    rows = sum(len(bank.filters) ** d for d in range(1, depth + 1))
    return {"scattering.rows": rows, "scattering.bytes_computed": rows * bank.n * 16}


# span name -> counters read from (positional args, result) after the call
COUNTERS = {
    "cli.main": lambda args, result: {"cli.main.exit_nonzero": int(result != 0)},
    "signals.write_signal": lambda args, result: {"signals.write_signal.bytes": os.path.getsize(args[0])},
    "scattering.scatter": _scatter_rows,
    "scattering.layer_energy_profile": _profile_rows,
    "stationary.mc_layer_energy": lambda args, result: {"stationary.trials": result.trials},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        counters = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = Span(self.op, span_id, self._stack[-1] if self._stack else None, name, 0, 0)
            self.spans.append(span)
            self._stack.append(span_id)
            span.start_ns = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs[f"{name}.refused.{type(exc).__name__}"] = 1
                raise
            finally:
                span.end_ns = perf_counter_ns()
                self._stack.pop()
            if counters is not None:
                span.attrs.update(counters(args, result))
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = sys.modules[f"scatdecay.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__.startswith("scatdecay.")
                        and fn.__name__ in getattr(sys.modules[fn.__module__], "__all__", ())):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def summarize(spans: list[Span], walls: dict[int, float], untraced: dict[int, float]) -> dict:
    """Per-operation means of the layer metrics.

    ``walls`` and ``untraced`` map operation id to the wall time of its
    ``main`` call with tracing on and off.  Self time is a span's duration
    minus its children's; the self times of one operation's spans add up to
    its root ``cli.main`` span, and the untraced remainder is what the wall
    time holds beyond that root.
    """
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s in spans:
        dur = (s.end_ns - s.start_ns) / 1e9
        total[s.name] += dur
        self_s[s.name] += dur - child_ns[s.span_id] / 1e9
        calls[s.name] += 1
        for key, value in s.attrs.items():
            counts[key] += value
    ops = len(walls)
    wall = sum(walls.values())
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) for layer in LAYERS}
    m = {
        "cli.main.self_s": self_s["cli.main"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.exit_nonzero": counts["cli.main.exit_nonzero"],
        "signals.write_signal.s": total["signals.write_signal"],
        "signals.write_signal.calls": calls["signals.write_signal"],
        "signals.write_signal.bytes": counts["signals.write_signal.bytes"],
        "signals.read_signal.s": total["signals.read_signal"],
        "filterbank.load_bank.s": total["filterbank.load_bank"],
        "filterbank.check_littlewood_paley.s": total["filterbank.check_littlewood_paley"],
        "filterbank.check_asymmetry.s": total["filterbank.check_asymmetry"],
        "filterbank.estimate_vanishing_order.s": total["filterbank.estimate_vanishing_order"],
        "filterbank.estimate_vanishing_order.calls": calls["filterbank.estimate_vanishing_order"],
        "decay.compute_constants.self_s": self_s["decay.compute_constants"],
        **{f"decay.compute_constants.refused.{c}": counts[f"decay.compute_constants.refused.{c}"]
           for c in REFUSAL_CLASSES},
        "decay.initialize_lowpass.s": total["decay.initialize_lowpass"],
        "decay.initialize_lowpass.calls": calls["decay.initialize_lowpass"],
        "decay.initialize_x.s": total["decay.initialize_x"],
        "decay.verify_decay.self_s": self_s["decay.verify_decay"],
        "scattering.scatter.s": total["scattering.scatter"],
        "scattering.export_result.self_s": self_s["scattering.export_result"],
        "scattering.layer_energy_profile.s": total["scattering.layer_energy_profile"],
        "scattering.layer_energy_profile.calls": calls["scattering.layer_energy_profile"],
        "scattering.rows": counts["scattering.rows"],
        "scattering.bytes_computed": counts["scattering.bytes_computed"],
        "stationary.simulate.s": total["stationary.simulate"],
        "stationary.mc_layer_energy.self_s": self_s["stationary.mc_layer_energy"],
        "stationary.trials": counts["stationary.trials"],
        "stationary.load_model.s": total["stationary.load_model"],
        **{f"{layer}.self_s": v for layer, v in layer_self.items()},
        "trace.remainder_s": wall - total["cli.main"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": sum(untraced.values()),
        "trace.spans": len(spans),
    }
    per_op = {k: v / ops for k, v in m.items()}
    per_op["trace.overhead_ratio"] = wall / sum(untraced.values()) - 1.0
    return per_op


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s/op"
    if name.endswith(("bytes", "bytes_computed")):
        return "B/op"
    return "1/op"


# spans whose mean total time per operation kind the traced run prints
KIND_SPANS = ("decay.compute_constants", "scattering.scatter", "scattering.export_result",
              "signals.write_signal", "stationary.mc_layer_energy", "stationary.simulate",
              "scattering.layer_energy_profile")


def kind_table(spans: list[Span], kinds: list[str], walls: dict[int, float]) -> dict:
    """Per operation kind: operation count, mean wall and mean time in KIND_SPANS.

    ``layer_energy_profile`` is given per call as well, since one operation
    makes thousands of them.
    """
    ops = defaultdict(int)
    wall = defaultdict(float)
    for i, kind in enumerate(kinds):
        ops[kind] += 1
        wall[kind] += walls[i]
    time_in = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        if s.name in KIND_SPANS:
            time_in[kinds[s.op], s.name] += (s.end_ns - s.start_ns) / 1e9
            calls[kinds[s.op], s.name] += 1
    table = {}
    for kind, n in ops.items():
        row = {"ops": n, "wall_s": f"{wall[kind] / n:.4f}"}
        for name in KIND_SPANS:
            if calls[kind, name]:
                row[name.split(".")[1] + "_s"] = f"{time_in[kind, name] / n:.4f}"
        profile = (kind, "scattering.layer_energy_profile")
        if calls[profile]:
            row["per_profile_call_ms"] = f"{1e3 * time_in[profile] / calls[profile]:.4f}"
        table[kind] = row
    return table
