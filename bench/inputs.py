"""Seeded input generator for the three workloads.

The benchmark draws every input here from ``random.Random(seed)`` and
hands the library only these values.  Inputs are never filtered on how
the library handles them: whatever fails at a seed is counted by the
checker.  Each input carries region tags so a run can report the share of
its inputs in each region (see ``region_shares``).

Regions, defined on the branch abscissa x (for omega, x = f(a, z)):
  branch_point  f_min < x <= f_min*(1 - 1e-2), i.e. within 1e-2 relative
  taylor_disc   |x| <= 0.4*|f_min| on the principal branch
  large_x       x >= 10 on the principal branch
  small_abs_x   |x| <= 1e-2*|f_min| on the lower branch
  a_small       a < 0.01
  a_large       a > 0.99
  rational      a given as an exact rational (closed-form route)
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

CHECK_SEED = 20230419        # seed of the fixed check sets behind max_err_ulps
PSI_RATIONALS = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(3, 5),
                 Fraction(1, 7))
OMEGA_RATIONALS = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5))
PQ_SIZES = tuple(2 ** e for e in range(10, 23, 2))   # 2^10 .. 2^22
REGIONS = ("branch_point", "taylor_disc", "large_x", "small_abs_x",
           "a_small", "a_large", "rational")


@dataclass(frozen=True)
class Op:
    """One library call: ``kind`` names the public function and route."""

    kind: str
    args: tuple
    tags: frozenset = field(default=frozenset(), compare=False)


def branch_constants(a: float) -> tuple[float, float]:
    """(w_min, f_min) in double precision, from the closed forms."""
    w_min = (math.log1p(-a) - math.log1p(a)) / (2.0 * a)
    return w_min, math.sinh(a * w_min) * math.exp(w_min)


def forward(a: float, w: float) -> float:
    return math.sinh(a * w) * math.exp(w)


def region_tags(a, x: float | None, branch: str | None) -> frozenset:
    af = float(a)
    tags = set()
    if isinstance(a, Fraction):
        tags.add("rational")
    if af < 0.01:
        tags.add("a_small")
    if af > 0.99:
        tags.add("a_large")
    if x is not None and 0.0 < af < 1.0:
        _, f_min = branch_constants(af)
        if f_min < x <= f_min * (1.0 - 1e-2):
            tags.add("branch_point")
        if branch == "principal" and abs(x) <= 0.4 * abs(f_min):
            tags.add("taylor_disc")
        if branch == "principal" and x >= 10.0:
            tags.add("large_x")
        if branch == "lower" and abs(x) <= 1e-2 * abs(f_min):
            tags.add("small_abs_x")
    return frozenset(tags)


def region_shares(ops) -> dict:
    """Share of ops carrying each region tag."""
    ops = list(ops)
    counts = Counter(t for op in ops for t in op.tags)
    return {r: counts[r] / len(ops) for r in REGIONS} if ops else {}


def log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def draw_a(rng) -> float:
    """a in (0, 1): 10% below 0.01, 10% above 0.99, the rest uniform."""
    u = rng.random()
    if u < 0.1:
        return log_uniform(rng, -4, -2)
    if u < 0.2:
        return 1.0 - log_uniform(rng, -4, -2)
    return rng.uniform(0.01, 0.99)


def draw_mid_a(rng) -> float:
    """a in [0.05, 0.95], for the series, quadrature and pq inputs."""
    return rng.uniform(0.05, 0.95)


def psi_x(rng, a: float, region: str) -> float:
    _, f_min = branch_constants(a)
    if region == "branch_point":
        return f_min * (1.0 - log_uniform(rng, -9, -2))
    if region == "taylor_disc":
        return abs(f_min) * rng.uniform(-0.4, 0.4)
    if region == "large_x":
        return log_uniform(rng, 1, 12)
    if region == "small_abs_x":
        return f_min * log_uniform(rng, -12, -2)
    raise ValueError(region)


_PSI_REGIONS = (("principal", "branch_point"), ("lower", "branch_point"),
                ("principal", "taylor_disc"), ("principal", "large_x"),
                ("lower", "small_abs_x"))


def psi_op(rng, a, kind: str = "psi") -> Op:
    branch, region = rng.choice(_PSI_REGIONS)
    x = psi_x(rng, float(a), region)
    return Op(kind, (a, branch, x), region_tags(a, x, branch))


def omega_op(rng, a, kind: str = "omega") -> Op:
    z = -log_uniform(rng, -4, math.log10(50.0))
    af = float(a)
    w_min, _ = branch_constants(af)
    branch = "principal" if z < w_min else "lower"
    return Op(kind, (a, z), region_tags(a, forward(af, z), branch))


def lambert_op(rng) -> Op:
    branch = rng.choice(("principal", "lower"))
    u = rng.random()
    if u < 0.3:
        x = -math.exp(-1.0) * (1.0 - log_uniform(rng, -9, -1))
    elif branch == "principal":
        x = rng.uniform(-0.36, 3.0) if u < 0.65 else log_uniform(rng, 0.5, 12)
    else:
        x = -log_uniform(rng, -12, -0.45)
    return Op("lambert_w", (branch, x), frozenset())


def omega_n_op(rng, a: float) -> Op:
    n_min = max(64, math.ceil(4.0 / (1.0 - a)))
    n = int(2 ** rng.uniform(math.log2(n_min), 20))
    z = -rng.uniform(0.05, 20.0)
    return Op("omega_finite_n", (n, a, z), region_tags(a, None, None))


def scalar_op(rng) -> Op:
    """One library_scalar call with a fresh a."""
    a = draw_a(rng)
    u = rng.random()
    if u < 0.50:
        return psi_op(rng, a)
    if u < 0.60:
        return omega_op(rng, a)
    if u < 0.68:
        return Op("forward", (a, rng.uniform(-40.0, 40.0)), region_tags(a, None, None))
    if u < 0.76:
        return lambert_op(rng)
    if u < 0.84:
        return omega_n_op(rng, a)
    if u < 0.92:
        branch = rng.choice(("principal", "lower"))
        _, f_min = branch_constants(a)
        if branch == "principal":
            x = f_min * (1.0 - log_uniform(rng, -3, -0.01)) if rng.random() < 0.5 \
                else log_uniform(rng, -3, 2)
        else:
            x = f_min * rng.uniform(0.01, 0.999)
        return Op("psi_derivative", (a, branch, x, rng.randint(1, 8)),
                  region_tags(a, x, branch))
    return Op("param_alpha", (a, 1.0 + log_uniform(rng, -6, 6)),
              region_tags(a, None, None))


def library_scalar(seed: int, count: int = 4096) -> list[Op]:
    rng = random.Random(seed)
    return [scalar_op(rng) for _ in range(count)]


def pq_cycle(rng) -> list[Op]:
    """The peak-scaling experiment for one seeded (a, z), over PQ_SIZES."""
    a = draw_mid_a(rng)
    z = -rng.uniform(0.5, 20.0)
    return [Op("pq", (n, a, z), region_tags(a, None, None)) for n in PQ_SIZES]


def pq_peaks(seed: int, cycles: int) -> list[list[Op]]:
    rng = random.Random(seed)
    return [pq_cycle(rng) for _ in range(cycles)]


# ------------------------------------------------------------ CLI workloads

def fmt_a(a) -> str:
    return f"{a.numerator}/{a.denominator}" if isinstance(a, Fraction) else repr(a)


@dataclass(frozen=True)
class Invocation:
    """One pqlambert process: argv after the program name, plus what the
    checker needs to judge its output."""

    verb: str
    argv: tuple
    info: dict = field(default_factory=dict, compare=False)
    tags: frozenset = field(default=frozenset(), compare=False)


def _eval_invocations(rng) -> list[Invocation]:
    out = []

    def add(op, argv):
        fmt = rng.choice(("csv", "json"))
        out.append(Invocation("eval", ("eval", *argv, "--format", fmt),
                              {"op": op, "format": fmt}, op.tags))

    a = draw_a(rng)
    w = rng.uniform(-20.0, 20.0)
    add(Op("forward", (a, w), region_tags(a, None, None)), ("f", "--a", fmt_a(a), "--x", repr(w)))
    for branch, name in (("principal", "psi0"), ("lower", "psi1")):
        for rational in (True, False):
            a = rng.choice(PSI_RATIONALS) if rational else draw_a(rng)
            region = rng.choice([r for b, r in _PSI_REGIONS if b == branch])
            x = psi_x(rng, float(a), region)
            op = Op("psi_cf" if rational else "psi", (a, branch, x),
                    region_tags(a, x, branch))
            fn = (name,) if rng.random() < 0.5 else ("psi", "--branch", branch)
            add(op, (*fn, "--a", fmt_a(a), "--x", repr(x)))
    for rational in (True, False):
        a = rng.choice(OMEGA_RATIONALS) if rational else draw_a(rng)
        op = omega_op(rng, a, "omega_cf" if rational else "omega")
        add(op, ("omega", "--a", fmt_a(a), "--z", repr(op.args[1])))
    op = omega_n_op(rng, draw_a(rng))
    n, a, z = op.args
    add(op, ("omega_n", "--a", fmt_a(a), "--z", repr(z), "--n", str(n)))
    for branch, name in (("principal", "W0"), ("lower", "Wm1")):
        op = lambert_op(rng)
        while op.args[0] != branch:
            op = lambert_op(rng)
        add(op, (name, "--x", repr(op.args[1])))
    return out


_SWEEP_FUNCS = ("f", "psi0", "psi1", "omega", "W0", "Wm1")


def sweep_invocation(rng, function: str, a, count: int, out: str) -> Invocation:
    """A sweep over the natural range of ``function`` at asymmetry a."""
    af = float(a) if a is not None else None
    if function == "f":
        lo, hi = -rng.uniform(10, 40), rng.uniform(1, 40)
    elif function == "psi0":
        _, f_min = branch_constants(af)
        lo, hi = f_min * (1.0 - 1e-7), log_uniform(rng, 1, 3)
    elif function == "psi1":
        _, f_min = branch_constants(af)
        lo, hi = f_min * (1.0 - 1e-7), f_min * log_uniform(rng, -8, -5)
    elif function == "omega":
        lo, hi = -rng.uniform(20, 40), -log_uniform(rng, -4, -2)
    elif function == "W0":
        lo, hi = -math.exp(-1.0) * (1.0 - 1e-9), log_uniform(rng, 1, 6)
    else:
        lo, hi = -math.exp(-1.0) * (1.0 - 1e-9), -log_uniform(rng, -10, -6)
    scale = "log" if function == "omega" else "linear"
    argv = ["sweep", function]
    if a is not None:
        argv += ["--a", fmt_a(a)]
    argv += ["--lo", repr(lo), "--hi", repr(hi), "--count", str(count),
             "--scale", scale, "--out", out]
    info = {"function": function, "a": a, "lo": lo, "hi": hi, "count": count,
            "scale": scale, "out": out}
    return Invocation("sweep", tuple(argv), info,
                      region_tags(a, None, None) if a is not None else frozenset())


def pqdist_invocation(n: int, a: float, z: float, out: str) -> Invocation:
    return Invocation("pqdist", ("pqdist", "--n", str(n), "--a", fmt_a(a),
                                 "--z", repr(z), "--out", out),
                      {"n": n, "a": a, "z": z, "out": out}, region_tags(a, None, None))


def cli_cold(seed: int, tmp: str) -> list[Invocation]:
    """One cycle: every verb, in a seeded order, with seeded arguments."""
    rng = random.Random(seed)
    out = _eval_invocations(rng)
    for kind, order in (("taylor", 40), ("branch-omega", 12), ("asym-psi0", 10)):
        a = draw_mid_a(rng)
        fmt = rng.choice(("csv", "json"))
        out.append(Invocation("series", ("series", "--a", fmt_a(a), "--kind", kind,
                                         "--order", str(order), "--format", fmt),
                              {"a": a, "kind": kind, "order": order, "format": fmt},
                              region_tags(a, None, None)))
    a = draw_mid_a(rng)
    target = rng.choice(("omega", "psi0", "psi1"))
    out.append(Invocation("integrate", ("integrate", "--a", fmt_a(a), "--target", target),
                          {"a": a, "target": target, "rel_tol": 1e-6},
                          region_tags(a, None, None)))
    a = draw_mid_a(rng)
    out.append(Invocation("envelope", ("envelope", "--a", fmt_a(a), "--format", "json"),
                          {"a": a}, region_tags(a, None, None)))
    for level in ("fast", "full"):
        out.append(Invocation("selfcheck", ("selfcheck", "--level", level), {"level": level}))
    function = rng.choice(_SWEEP_FUNCS)
    a = None if function in ("W0", "Wm1") else draw_mid_a(rng)
    out.append(sweep_invocation(rng, function, a, 101, f"{tmp}/cold_sweep.csv"))
    out.append(pqdist_invocation(2 ** 12, draw_mid_a(rng), -rng.uniform(0.5, 20.0),
                                 f"{tmp}/cold_pq.csv"))
    rng.shuffle(out)
    return out

