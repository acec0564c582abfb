"""A seeded fuzzer of the files the CLI reads: bank and model recipes and signals.

Each case writes one faulty file and keeps every other input valid: a bank
recipe for ``bank check``, a model for ``stationary run --trials 4`` or a
signal of the bank's N, CSV or raw beside its sidecar, for ``scatter run
--depth 1``.  It runs ``cli.main`` in process with every warning an error and
checks the exit-code contract: the code is 0-3, no exception escapes, no
``--out`` is left after exit 2 or 3, and every exit 2 names the faulty file.
The draw is derandomized, so every run takes the same 150 cases.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scatdecay.cli import main

_N = 16
_BANKS = [{"mother": {"name": name, "params": params}, "J": 0, "j_min": None, "N": _N}
          for name, params in (("morlet", {"center": 3.0, "width": 1.0}), ("shannon", {}),
                               ("bandpass", {"lo": 1, "hi": 2, "amplitude": 1.0}))]
_MODELS = [{"kind": kind, "params": params, "N": _N} for kind, params in (
    ("white", {"sigma": 1.0, "mean": 0.5}),
    ("ar1", {"sigma": 1.0, "rho": 0.5}),
    ("filtered_noise", {"sigma": 1.0, "filter": {"name": "gaussian_lowpass", "a": 4.0}}),
    ("filtered_noise", {"filter": {"name": "band", "lo": 1, "hi": 4, "amplitude": 2.0}}),
)]
# wrong JSON types, bools, strings, extreme and subnormal floats, NaN and Infinity
# tokens (json writes them), and 400-digit integers
_VALUES = [[], {}, None, [1.0], {"a": 1}, True, False, "", "2", "nan", "morlet",
           1e308, -1e308, 1.7976931348623157e308, 1e-308, -0.0, 0, -1, 5e-324, 2.5e-310,
           math.nan, math.inf, -math.inf, 10**400, -(10**400)]
_DEEP = b"[" * 100_000 + b"]" * 100_000
_NOT_UTF_8 = b'"\xff\xfe"'
# a CSV line or a sidecar field in place of a valid one
_TOKENS = [b"", b" ", b"nan", b"inf", b"-inf", b"1e400", b"1e308", b"-1e308", b"5e-324", b"-0",
           b"1" + b"0" * 400, b"true", b"abc", b"1,2", b"1,2,3", b"# c", b"0x10", b"16.0", b"\xff", b"\xff\xfe"]
_SAMPLES = [float(np.cos(2 * np.pi * 3 * k / _N)) for k in range(_N)]
_VALID_BANK = _BANKS[0]


def _sites(doc, path=()):
    """The path of every value of a JSON document, its root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _sites(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    return value if not path else {**doc, path[0]: _put(doc[path[0]], path[1:], value)}


@st.composite
def _recipe(draw, bases):
    """A recipe's bytes with one fault: a value, an unknown key, deep nesting or bytes not UTF-8."""
    base = draw(st.sampled_from(bases))
    sites = list(_sites(base))
    kind = draw(st.sampled_from(("value", "key", "deep", "bytes")))
    if kind == "key":
        path = draw(st.sampled_from([p for p in sites if isinstance(_at(base, p), dict)]))
        return json.dumps(_put(base, path, {**_at(base, path), "foo": draw(st.sampled_from(_VALUES))})).encode()
    path = draw(st.sampled_from(sites))
    fault = {"value": lambda: json.dumps(draw(st.sampled_from(_VALUES))).encode(), "deep": lambda: _DEEP,
             "bytes": lambda: _NOT_UTF_8}[kind]()
    return json.dumps(_put(base, path, "<fault>")).encode().replace(b'"<fault>"', fault)


@st.composite
def _csv(draw):
    lines = [repr(x).encode() for x in _SAMPLES]
    lines[draw(st.integers(0, _N - 1))] = draw(st.sampled_from(_TOKENS))
    return {"": b"\n".join(lines) + b"\n"}


@st.composite
def _raw(draw):
    """A raw payload and its sidecar, one of them faulty."""
    payload = np.array(_SAMPLES, dtype="<f8")
    fields = {b"N": b"16", b"complex": b"0"}
    where = draw(st.sampled_from(("value", "size", "field", "extra", "sidecar")))
    if where == "value":
        payload[draw(st.integers(0, _N - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308,
                                                                      5e-324, -0.0]))
    data = payload.tobytes()
    if where == "size":
        data = draw(st.sampled_from([data[:-3], data[:-8], data + b"\0" * 8, b""]))
    if where == "field":
        fields[draw(st.sampled_from(sorted(fields)))] = draw(st.sampled_from(_TOKENS))
    meta = b";".join(k + b"=" + v for k, v in fields.items())
    if where == "extra":
        meta += draw(st.sampled_from([b";foo=1", b";N", b";N=8", b";", b"\xff", b"=\xff"]))
    if where == "sidecar":
        meta = draw(st.sampled_from(_TOKENS))
    return {"": data, ".meta": meta + b"\n"}


_CASES = st.one_of(
    st.tuples(st.just("bank check --bank {file} --out {out}"), _recipe(_BANKS).map(lambda b: {"": b})),
    st.tuples(st.just("stationary run --bank {bank} --model {file} --out {out} --trials 4"),
              _recipe(_MODELS).map(lambda b: {"": b})),
    st.tuples(st.just("scatter run --bank {bank} --signal {file} --out {out} --depth 1"), _csv() | _raw()),
)


@settings(derandomize=True, database=None, max_examples=150,
          deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_CASES)
def test_a_faulty_input_file_keeps_the_exit_code_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out, bank = (os.path.join(tmp, name) for name in ("input", "out", "bank.json"))
        for suffix, data in files.items():
            with open(path + suffix, "wb") as fh:
                fh.write(data)
        with open(bank, "w") as fh:
            json.dump(_VALID_BANK, fh)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv.format(file=path, out=out, bank=bank).split())
        message = err.getvalue()
        assert code in (0, 1, 2, 3), message
        assert code < 2 or not os.path.exists(out), message
        assert code != 2 or path in message, message
