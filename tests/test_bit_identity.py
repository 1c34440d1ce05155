"""Bit-identity pin of the scalar solve path.

``bit_identity_pins.json`` holds, for a seeded grid of calls to ``psi``
(both branches, every seed region), ``omega``, ``omega_finite_n`` and
``psi_derivative`` (orders 1-8), then for a second seeded grid of calls
to ``psi_primitive`` and ``psi_closed_form`` (the five rationals, written
``"num/den"``) that also steps x across the branch-point band, and for a
third of ``param_alpha`` and ``omega_closed_form``, the callers of
``core._log_abs_em1``, with arguments on both sides of its switch points,
the exact result as ``float.hex`` (a list of them for the fields of an
``AlphaPoint``, or the name of the exception raised).  The test
replays every call and requires the same bits, so a refactor of the
solve path that claims to change no floating-point operation is held to
that claim.

The grid leaves out a < 1e-150 and x > DBL_MAX/2, and the file leaves
out the calls that leaked a bare ``OverflowError`` or
``ZeroDivisionError`` or returned inf when it was recorded: those are the
tiny-a and top-of-range defects, tested against mpmath instead
(tests/test_branches.py).  After an intended numerical change, regenerate
the file with ``PYTHONPATH=src python tests/test_bit_identity.py`` and
state the change.
"""

import json
import math
import os
import random

import pytest

from conftest import ulps_around
from pqlambert.branches import omega, omega_finite_n, psi
from pqlambert.branches import omega_closed_form, psi_closed_form
from pqlambert.calculus import psi_derivative, psi_primitive
from pqlambert.core import AsymmetryParam, BranchId, branch_constants
from pqlambert.parametrize import param_alpha

PIN_FILE = os.path.join(os.path.dirname(__file__), "bit_identity_pins.json")
FUNCTIONS = {"psi": psi, "omega": omega, "omega_finite_n": omega_finite_n,
             "psi_derivative": psi_derivative, "psi_primitive": psi_primitive,
             "psi_closed_form": psi_closed_form, "param_alpha": param_alpha,
             "omega_closed_form": omega_closed_form}
BRANCHES = {"principal": BranchId.PRINCIPAL, "lower": BranchId.LOWER}
LEAKS = ("!OverflowError", "!ZeroDivisionError", float.hex(math.inf))


def _log_uniform(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _draw_a(rng):
    r = rng.random()
    if r < 0.15:
        return _log_uniform(rng, -12, -2)
    if r < 0.3:
        return 1.0 - _log_uniform(rng, -9, -2)
    return rng.uniform(0.01, 0.99)


def _branch_xs(rng, f_min):
    """x values per branch, covering every seed region of the solver."""
    near = [f_min * (1.0 - _log_uniform(rng, -9, -2)) for _ in range(3)]
    mid = [f_min * rng.uniform(0.05, 0.95) for _ in range(3)]
    tiny = [-_log_uniform(rng, -300, -3) for _ in range(2)]
    principal = (near + mid + tiny + [rng.uniform(0.0, 1.0), rng.uniform(1.0, 10.0),
                                      _log_uniform(rng, 1, 300), _log_uniform(rng, 300, 307)])
    lower = near + mid + tiny
    return {"principal": principal, "lower": lower}


def grid(seed=20261018, count=32):
    """The pinned calls as (function name, args), args in JSON-able form."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        a = _draw_a(rng)
        f_min = branch_constants(a).f_min
        for br, xs in _branch_xs(rng, f_min).items():
            for x in xs:
                calls.append(("psi", [a, br, x]))
            for n in range(1, 9):
                x = xs[rng.randrange(len(xs))]
                calls.append(("psi_derivative", [a, br, x, n]))
        w_min = branch_constants(a).w_min
        for z in (w_min * rng.uniform(1.01, 3.0), w_min * rng.uniform(0.05, 0.99),
                  -_log_uniform(rng, -300, -1), -_log_uniform(rng, 1, 3)):
            calls.append(("omega", [a, z]))
        if 0.01 <= a <= 0.99:
            n = rng.choice((16, 256, 4096, 65536))
            calls.append(("omega_finite_n", [n, a, w_min * rng.uniform(1.1, 3.0)]))
    return calls


def _band_xs(f_min):
    """f_min and doubles up to 32 ulps above it, across the 8-eps band."""
    xs, x = [], f_min
    for k in range(33):
        if k in (0, 1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 32):
            xs.append(x)
        x = math.nextafter(x, math.inf)
    return xs


def primitive_closed_form_grid(seed=20261020, count=12, draws=3):
    """The pinned calls of psi_primitive and psi_closed_form, from their own
    generator, so that grid()'s calls keep their place in the file."""
    rng = random.Random(seed)
    edges = {"principal": [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310],
             "lower": [-5e-324, -1e-310]}
    calls = []
    for _ in range(count):
        a = _draw_a(rng)
        f_min = branch_constants(a).f_min
        for br, xs in _branch_xs(rng, f_min).items():
            for x in xs + _band_xs(f_min) + edges[br]:
                calls.append(("psi_primitive", [a, br, x]))
    for num, den in ((1, 3), (1, 2), (1, 5), (3, 5), (1, 7)):
        f_min = branch_constants(num / den).f_min
        drawn = [_branch_xs(rng, f_min) for _ in range(draws)]
        for br in BRANCHES:
            for x in [x for xs in drawn for x in xs[br]] + _band_xs(f_min) + edges[br]:
                calls.append(("psi_closed_form", [f"{num}/{den}", br, x]))
    return calls


def log_abs_em1_caller_grid(seed=20261021, count=8):
    """The pinned calls of param_alpha and omega_closed_form: the rationals
    1/3, 1/2 and 1/5 and drawn a, with alpha and z on both sides of the
    switch points of log|e^t - 1| (t = 33 in param_alpha, t = -ln 2 in the
    1/3 transition)."""
    rng = random.Random(seed)
    rationals = ("1/3", "1/2", "1/5")
    calls = []
    for a in rationals + tuple(_draw_a(rng) for _ in range(count)):
        aa = _arg(a).a if isinstance(a, str) else a
        alphas = [1.0 + _log_uniform(rng, -12, -1), rng.uniform(1.1, 10.0),
                  _log_uniform(rng, 1, 300), 1e300]
        for c in (1.0 - aa, 1.0 + aa, 2.0 * aa):  # t = c*log(alpha) at 33
            if 33.0 / c < 709.0:
                alphas += [math.exp(la) for la in ulps_around(33.0 / c, 2)]
        calls += [("param_alpha", [a, alpha]) for alpha in alphas]
    for a in rationals:
        w_min = branch_constants(_arg(a).a).w_min
        zs = [-_log_uniform(rng, -300, 3) for _ in range(8)]
        zs += [w_min * rng.uniform(0.5, 2.0), -5e-324, -1e-310, -745.0, -1200.0]
        zs += ulps_around(-1.5 * math.log(2.0), 3)  # 2z/3 at -ln 2
        calls += [("omega_closed_form", [a, z]) for z in zs]
    return calls


def _encode(value):
    return float.hex(value) if isinstance(value, float) else value


def _decode(value):
    return float.fromhex(value) if isinstance(value, str) and "0x" in value else value


def _arg(value):
    if not isinstance(value, str):
        return value
    if value in BRANCHES:
        return BRANCHES[value]
    num, den = value.split("/")
    return AsymmetryParam.from_rational(int(num), int(den))


def _run(name, args):
    args = [_arg(v) for v in args]
    try:
        value = FUNCTIONS[name](*args)
    except Exception as exc:  # the pin records which error a call raises
        return f"!{type(exc).__name__}"
    # param_alpha's AlphaPoint is pinned field by field
    return [float.hex(v) for v in value] if isinstance(value, tuple) else float.hex(value)


def _load():
    with open(PIN_FILE) as fh:
        return json.load(fh)


def test_pin_covers_every_pinned_function():
    names = {entry["fn"] for entry in _load()}
    assert names == set(FUNCTIONS)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_results_are_bit_identical(name):
    mismatches = []
    for entry in _load():
        if entry["fn"] != name:
            continue
        args = [_decode(v) for v in entry["args"]]
        got = _run(name, args)
        if got != entry["result"]:
            mismatches.append((args, entry["result"], got))
    assert not mismatches, mismatches[:5]


def main():
    pins = [{"fn": name, "args": [_encode(v) for v in args], "result": _run(name, args)}
            for name, args in grid() + primitive_closed_form_grid() + log_abs_em1_caller_grid()]
    pins = [pin for pin in pins if pin["result"] not in LEAKS]
    with open(PIN_FILE, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n")
    print(f"wrote {len(pins)} pins to {PIN_FILE}")


if __name__ == "__main__":
    main()
