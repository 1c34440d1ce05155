"""Output checker: compares library values and parsed CLI output with the
50-digit references in ``oracle`` and counts failures.

Stated tolerance.  A function value v with reference r passes when

    |v - r| <= 2^-26 |r| + 16 * sum_u |dr/du| ulp(u)

over its floating-point inputs u: 26 correct bits beyond what 16 ulps of
rounding in the inputs already explain.  This is a correctness gate (a wrong
branch, a sign error or a corrupted digit fails it); accuracy is the
separate ``max_err_ulps`` metric, |v - r| / ulp(r) on the fixed check sets.
Other families:

  log p,q-coefficients  |v - r| <= 2^-20 + 64 ulp(r)   (masses to 20 bits)
  peak index k          log C(k)/C(k-1) >= -t and log C(k+1)/C(k) <= t,
                        t = 64 ulp(max log-coefficient): a true local maximum
                        up to ties the library cannot resolve
  series coefficients   |v_i - r_i| rho^i <= 2^-26 max_j |r_j| rho^j with rho
                        half the expansion's natural radius: the coefficients
                        are right where the truncated series is used (the
                        library documents that order 40 exhausts double
                        precision, so the highest Taylor terms are weighted
                        down, not exempted)
  quadrature            |v - r| <= the requested rel_tol * |r|

A library error (DomainError, RangeError and their subclasses, or exit
code 2 from the CLI) is correct only when the oracle finds the input out of
domain or the result beyond the double range.  Any other exception, a
non-finite value, or a ConvergenceError is a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as O
from inputs import Op, branch_constants

REL_TOL = 2.0 ** -26
COND_ULPS = 16.0
PQ_ABS_TOL = 2.0 ** -20
PEAK_ULPS = 64.0
DOMAIN_ERRORS = frozenset({"DomainError", "RangeError", "SingularityError",
                           "DegenerateRatioError", "UnsupportedError"})
_DOUBLE_MAX = O.M(1.7976931348623157e308)


def ulp(v) -> float:
    return math.ulp(float(v))


@dataclass
class Verdict:
    ok: bool
    ulps: float = 0.0
    detail: str = ""


def known_defect(op) -> bool:
    """True for an input in a region where the library is known to be wrong
    at the seed (README.md, "Known defects").  The region is a property of
    the input alone; its failures are still counted in ``failed``, but only
    a failure outside every such region makes a run incorrect."""
    if op is None:
        return False
    k, args = op.kind, op.args
    if k == "psi_derivative":
        a, branch, _, order = args
        return (branch == "lower" and (order >= 4 or a > 0.9)) or (a > 0.9 and order >= 4)
    if k == "psi_cf":
        a, branch, x = args
        if branch == "principal":
            return x >= 1e4
        return abs(x) <= 1e-4 * abs(branch_constants(float(a))[1])
    if k == "omega_cf":
        return args[1] < -20.0
    return False


@dataclass
class Tally:
    """Operations attempted and failed, values checked, worst error of the
    values that pass."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0          # failures outside every known-defect region
    values: int = 0
    max_err_ulps: float = 0.0
    failures: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)     # key -> passed so far

    def record(self, verdicts, what: str, track_ulps: bool = True, op=None,
               key=None) -> bool:
        """Count one operation (``op``, when it is a library call) whose
        values produced ``verdicts``.  Runs of the same operation under one
        ``key`` count once, as failed if any run failed, so that attempted
        and failed depend on the seed and not on how many runs fit the time."""
        ok = True
        for v in verdicts:
            self.values += 1
            if not v.ok:
                ok = False
                if len(self.failures) < 20:
                    self.failures.append(f"{what}: {v.detail}")
            elif track_ulps:
                self.max_err_ulps = max(self.max_err_ulps, v.ulps)
        first = key is None or key not in self.seen
        if not first and (ok or not self.seen[key]):
            return ok                    # already counted with this outcome
        if key is not None:
            self.seen[key] = ok
        self.attempted += first
        if not ok:
            self.failed += 1
            if not known_defect(op):
                self.unexpected += 1
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.values += other.values
        self.max_err_ulps = max(self.max_err_ulps, other.max_err_ulps)
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])


def compare(value, ref, sens=()) -> Verdict:
    """Tolerance test for one value; ``sens`` holds (d ref/d u, u) pairs."""
    if isinstance(value, BaseException):
        return Verdict(False, math.inf, f"raised {type(value).__name__}: {value}")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return Verdict(False, math.inf, f"non-finite or missing value {value!r}")
    err = abs(O.M(value) - ref)
    cond = sum(abs(d) * ulp(u) for d, u in sens)
    tol = REL_TOL * abs(ref) + COND_ULPS * cond
    ulps = float(err / ulp(ref)) if ref else (0.0 if value == 0 else math.inf)
    if err <= tol or value == float(ref):
        return Verdict(True, ulps)
    return Verdict(False, ulps, f"value {value!r} vs reference {O.mp.nstr(ref, 20)} "
                                f"({ulps:.3g} ulps, tolerance {float(tol):.3g})")


def library_error(value, domain_ok: bool) -> Verdict | None:
    """Verdict for an exception result, or None when value is not one."""
    if not isinstance(value, BaseException):
        return None
    name = type(value).__name__
    if name in DOMAIN_ERRORS and domain_ok:
        return Verdict(True)
    return Verdict(False, math.inf, f"raised {name}: {value}")


def _reference(fun, value):
    """Run a reference; returns (ref, None) or (None, verdict-if-error)."""
    try:
        return fun(), None
    except O.OutOfDomain:
        v = library_error(value, True)
        return None, v or Verdict(False, math.inf,
                                  f"returned {value!r} for an out-of-domain input")


def _start(value):
    return value if isinstance(value, float) else None


def check_op(op, value) -> list[Verdict]:
    """Verdicts for one library call ``op`` (see inputs.Op) and its result."""
    k, args = op.kind, op.args
    if k in ("psi", "psi_cf"):
        a, branch, x = args
        ref, bad = _reference(lambda: O.psi(a, branch, x, _start(value)), value)
        if bad:
            return [bad]
        dx, da = O.psi_sensitivities(a, ref)
        sens = [(dx, x)] + ([] if isinstance(a, Fraction) else [(da, a)])
    elif k in ("omega", "omega_cf"):
        a, z = args
        ref, bad = _reference(lambda: O.omega(a, z, _start(value)), value)
        if bad:
            return [bad]
        dz, da = O.omega_sensitivities(a, z, ref)
        sens = [(dz, z)] + ([] if isinstance(a, Fraction) else [(da, a)])
    elif k == "forward":
        a, w = args
        ref = O.fwd(O.M(a), O.M(w))
        if abs(ref) > _DOUBLE_MAX:
            return [library_error(value, True) or Verdict(False, math.inf, "overflow missed")]
        dw, da = O.forward_sensitivities(a, w)
        sens = [(dw, w), (da, a)]
    elif k == "lambert_w":
        branch, x = args
        ref, bad = _reference(lambda: O.lambert_w(branch, x), value)
        if bad:
            return [bad]
        sens = [(ref / (O.M(x) * (1 + ref)), x)] if x and ref != -1 else []
    elif k == "omega_finite_n":
        n, a, z = args
        res, bad = _reference(lambda: O.omega_finite_n(n, a, z, _start(value)), value)
        if bad:
            return [bad]
        ref, dz = res
        sens = [(dz, z)]
    elif k == "psi_derivative":
        a, branch, x, n = args
        res, bad = _reference(lambda: O.psi_derivative(a, branch, x, n, None), value)
        if bad:
            return [bad]
        ref, ref_next = res
        if abs(ref) > _DOUBLE_MAX:
            return [library_error(value, True) or Verdict(False, math.inf, "overflow missed")]
        sens = [(ref_next, x)]
    elif k == "param_alpha":
        a, alpha = args
        res, bad = _reference(lambda: O.param_alpha(a, alpha), value)
        if bad:
            return [bad]
        err = library_error(value, False)
        if err:
            return [err]
        refs, d_alpha, d_a = res
        return [compare(v, r, [(d1, alpha), (d2, a)])
                for v, r, d1, d2 in zip((value.x, value.psi0, value.psi1), refs, d_alpha, d_a)]
    else:
        raise ValueError(f"unknown op kind {k!r}")
    return [library_error(value, False) or compare(value, ref, sens)]


# ------------------------------------------------------------- p,q family

def check_log_coeffs(ref: O.PqReference, samples) -> list[Verdict]:
    """``samples`` is an iterable of (k, library log-coefficient)."""
    out = []
    for k, v in samples:
        r = ref.log_coeff(k)
        if not math.isfinite(v):
            out.append(Verdict(False, math.inf, f"log_coeff[{k}] = {v!r}"))
            continue
        err = abs(O.M(v) - r)
        ulps = float(err / ulp(r)) if r else (0.0 if v == 0 else math.inf)
        ok = err <= PQ_ABS_TOL + 64 * ulp(r)
        out.append(Verdict(ok, ulps, "" if ok else
                           f"log_coeff[{k}] = {v!r} vs {O.mp.nstr(r, 20)}"))
    return out


def check_peaks(ref: O.PqReference, peaks, scale: float) -> list[Verdict]:
    """Every reported peak is a local maximum, a single peak sits at the
    centre, and a pair straddles the centre with no missed maximum there."""
    n = ref.n
    t = PEAK_ULPS * ulp(scale) + 1e-13
    out = []
    for k in peaks:
        up = ref.log_ratio(k) >= -t if k >= 1 else True
        down = ref.log_ratio(k + 1) <= t if k < n else True
        out.append(Verdict(up and down, 0.0, "" if up and down else
                           f"peak {k} is not a local maximum (n = {n})"))
    peaks = sorted(peaks)
    if len(peaks) == 1:
        ok = peaks[0] in (n // 2, (n - 1) // 2)
    elif len(peaks) == 2:
        # each side was checked as a local maximum above; within a flat top
        # the two sides need not mirror each other index for index
        ok = peaks[0] < n / 2 < peaks[1] and not ref.log_ratio(n // 2 + n % 2) > t
    else:
        ok = False
    out.append(Verdict(ok, 0.0, "" if ok else f"peaks {peaks} (n = {n})"))
    return out


def pq_samples(n: int, peaks) -> list[int]:
    """Fixed sample positions: both ends, thirds, the centre and the peaks."""
    ks = {1, n // 3, n // 2, n - 1} | {int(p) for p in peaks}
    return sorted(k for k in ks if 0 <= k <= n)


def check_pq_result(op, res) -> list[Verdict]:
    """Checks one pq_peaks experiment: ``res`` holds the built distribution's
    sampled log-coefficients, peaks, mass sum, peak_drift output,
    omega_finite_n and equal_ratio_residual."""
    n, a, z = op.args
    if isinstance(res, BaseException):
        return [Verdict(False, math.inf, f"raised {type(res).__name__}: {res}")]
    ref = O.PqReference(n, res["p"], res["q"])
    out = check_log_coeffs(ref, res["samples"])
    out += check_peaks(ref, res["peaks"], res["max_log_coeff"])
    ok = abs(res["mass_sum"] - 1.0) <= 1e-9
    out.append(Verdict(ok, 0.0, "" if ok else f"masses sum to {res['mass_sum']!r}"))
    k_peak, offset = res["drift"]
    want = abs(k_peak - n * (1.0 - a) / 2.0) / n
    ok = k_peak == min(res["peaks"]) and abs(offset - want) <= 1e-12
    out.append(Verdict(ok, 0.0, "" if ok else f"peak_drift {res['drift']!r}"))
    out += check_op(Op("omega_finite_n", (n, a, z)), res["omega_bar"])
    ref_resid = O.ratio_residual(n, res["p_bar"], res["q"], round(n * (1.0 - a) / 2.0))
    out.append(compare_ratio(res["residual"], ref_resid))
    return out


def compare_ratio(value, ref) -> Verdict:
    """equal_ratio_residual is ratio - 1: its tolerance is relative to the
    ratio, 2^-26 |ref + 1|."""
    if not isinstance(value, float) or not math.isfinite(value):
        return Verdict(False, math.inf, f"equal_ratio_residual {value!r}")
    ok = abs(O.M(value) - ref) <= REL_TOL * abs(ref + 1)
    return Verdict(ok, 0.0, "" if ok else
                   f"equal_ratio_residual {value!r} vs {O.mp.nstr(ref, 20)}")


# ---------------------------------------------------------- series checks

def _scaled(values, refs, radius):
    scale = max(abs(r) * radius ** (i + 1) for i, r in enumerate(refs))
    out = []
    for i, (v, r) in enumerate(zip(values, refs)):
        err = abs(O.M(v) - r) * radius ** (i + 1)
        ok = math.isfinite(v) and err <= REL_TOL * scale
        out.append(Verdict(ok, 0.0, "" if ok else
                           f"coefficient {i + 1} = {v!r} vs {O.mp.nstr(r, 20)}"))
    return out


def check_series(kind: str, a: float, coeffs) -> list[Verdict]:
    w_min, f_min = O.branch_point(O.M(a))
    if kind == "taylor":
        return _scaled(coeffs, O.taylor_at_zero(a, len(coeffs)), abs(f_min) / 2)
    if kind == "branch-omega":
        return _scaled(coeffs, O.branch_point_omega(a, len(coeffs)), abs(w_min) / 2)
    if kind == "asym-psi0":
        return _scaled(coeffs, O.asymptotic_psi0(a, len(coeffs)), O.M(0.5))
    raise ValueError(kind)


# ------------------------------------------------------------- CLI output

def parse_records(text: str, fmt: str) -> list[dict]:
    """Rows of a CSV (header line first) or JSON-lines CLI output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if fmt == "json":
        return [json.loads(ln) for ln in lines]
    return [dict(r) for r in csv.DictReader(lines)]


def _num(v):
    if v is None or v == "":
        return None
    return float(v)


class DomainError(Exception):
    """A CLI exit with code 2: the command rejected its input as out of domain."""


def check_eval(inv, code: int, stdout: str) -> list[Verdict]:
    op = inv.info["op"]
    if code == 2:
        return check_op(op, DomainError(stdout.strip()[:120]))
    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    recs = parse_records(stdout, inv.info["format"])
    if len(recs) != 1:
        return [Verdict(False, math.inf, f"{len(recs)} records")]
    return check_op(op, _num(recs[0].get("value")))


def check_series_output(inv, code: int, stdout: str) -> list[Verdict]:
    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    recs = parse_records(stdout, inv.info["format"])
    coeffs = [_num(r["coefficient"]) for r in recs]
    kind = inv.info["kind"]
    want = inv.info["order"] if kind != "asym-psi0" else min(inv.info["order"], 4)
    if len(coeffs) != want or [int(r["index"]) for r in recs] != list(range(1, want + 1)):
        return [Verdict(False, math.inf, f"{len(coeffs)} coefficients, {want} expected")]
    return check_series(kind, inv.info["a"], coeffs)


def check_integrate(inv, code: int, stdout: str) -> list[Verdict]:
    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    rec = parse_records(stdout, "csv")[0]
    a, target = inv.info["a"], inv.info["target"]
    ref = O.integral_omega(a) if target == "omega" else \
        O.integral_psi(a, "principal" if target == "psi0" else "lower")
    closed, quad = _num(rec["closed_form"]), _num(rec["quadrature"])
    rel_tol = inv.info["rel_tol"] if target == "omega" else max(inv.info["rel_tol"], 1e-10)
    out = [compare(closed, ref, [(ref * 2 * O.M(a) / (O.M(a) ** 2 - 1), a)]
                   if target == "omega" else [])]
    ok = quad is not None and abs(O.M(quad) - ref) <= rel_tol * abs(ref)
    out.append(Verdict(ok, 0.0, "" if ok else f"quadrature {quad!r} misses rel_tol"))
    ok = abs(_num(rec["difference"]) - abs(closed - quad)) <= 4 * ulp(abs(closed - quad) or 1e-300)
    out.append(Verdict(ok, 0.0, "" if ok else "difference column inconsistent"))
    return out


def check_envelope(inv, code: int, stdout: str) -> list[Verdict]:
    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    rec = parse_records(stdout, "json")[0]
    refs = O.envelope(inv.info["a"])
    out = []
    for key, ref in refs.items():
        v = rec.get(key)
        out.append(compare(float(v), ref, [(O.mp.diff(lambda t: O.envelope(t)[key],
                                                      O.M(inv.info["a"])), inv.info["a"])])
                   if v is not None else Verdict(False, math.inf, f"missing {key}"))
    return out


def check_selfcheck(inv, code: int, stdout: str) -> list[Verdict]:
    lines = stdout.strip().splitlines()
    ok = code == 0 and lines and all(ln.startswith("PASS") for ln in lines[:-1]) \
        and lines[-1].endswith("suites passed") \
        and lines[-1].split("/")[0] == lines[-1].split("/")[1].split()[0]
    return [Verdict(bool(ok), 0.0, "" if ok else f"selfcheck exit {code}: {lines[-1:]}")]


def sweep_grid(lo: float, hi: float, count: int, scale: str) -> list[float]:
    """The documented sweep grid (linear or geometric, endpoints included)."""
    if count == 1:
        return [lo]
    if scale == "linear":
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    sgn = -1.0 if lo < 0.0 else 1.0
    la, lb = math.log(abs(lo)), math.log(abs(hi))
    return [sgn * math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


_SWEEP_OPS = {"psi0": ("psi", "principal"), "psi1": ("psi", "lower"),
              "W0": ("lambert_w", "principal"), "Wm1": ("lambert_w", "lower")}


def sweep_op(function, a, t):
    if function == "f":
        return Op("forward", (a, t))
    if function == "omega":
        return Op("omega", (a, t))
    kind, branch = _SWEEP_OPS[function]
    return Op(kind, (a, branch, t) if kind == "psi" else (branch, t))


def check_sweep(inv, code: int, stdout: str, sample) -> list[Verdict]:
    """Every row: input on the documented grid, status ok and a finite value
    whose forward residual is at the rounding level.  The rows at the
    indices in ``sample`` are also compared with the oracle."""
    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    info = inv.info
    with open(info["out"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [ln.rstrip("\n").split(",") for ln in fh]
    grid = sweep_grid(info["lo"], info["hi"], info["count"], info["scale"])
    if len(rows) != len(grid) or header[-1] != "status":
        return [Verdict(False, math.inf, f"{len(rows)} rows, {len(grid)} expected")]
    bad = []
    a = info["a"]
    af = None if a is None else float(a)
    for i, (row, g) in enumerate(zip(rows, grid)):
        t, v, status = float(row[0]), row[1], row[-1]
        if abs(t - g) > 4 * ulp(g) or status != "ok" or not v:
            bad.append(f"row {i}: {row}")
            continue
        v = float(v)
        if not math.isfinite(v) or not _residual_ok(info["function"], af, t, v):
            bad.append(f"row {i}: residual of {row}")
    out = [Verdict(not bad, 0.0, "; ".join(bad[:3]))]
    for i in sample:
        out += check_op(sweep_op(info["function"], a, float(rows[i][0])), float(rows[i][1]))
    return out


def _residual_ok(function, a, t, v) -> bool:
    """Backward check in double: the value maps back to the input within
    the rounding of both (2^-26 relative in the forward map's scale)."""
    if function == "f":
        return True  # the forward map has no inverse residual; sampled only
    if function in ("W0", "Wm1"):
        back, x, slope = v * math.exp(v), t, abs((v + 1.0) * math.exp(v))
    else:
        fa = lambda w: math.exp((1.0 - a) * w) * math.expm1(2.0 * a * w) / 2.0  # noqa: E731
        x = fa(t) if function == "omega" else t
        back = fa(v)
        slope = abs(((1.0 + a) * math.expm1(2.0 * a * v) + 2.0 * a)
                    * math.exp((1.0 - a) * v) / 2.0)
    scale = max(abs(x), abs(back), slope * abs(v), 1e-300)
    return abs(back - x) <= REL_TOL * scale


def check_pqdist(inv, code: int, stdout: str) -> list[Verdict]:
    """Rows, sidecar, sampled coefficients and peaks of one pqdist output."""
    import numpy as np

    if code != 0:
        return [Verdict(False, math.inf, f"exit code {code}")]
    info = inv.info
    n = info["n"]
    out = info["out"]
    sidecar_path = out[:-4] + ".json"
    with open(sidecar_path, encoding="utf-8") as fh:
        side = json.load(fh)
    data = np.loadtxt(out, delimiter=",", skiprows=1, dtype=float)
    verdicts = []

    def expect(cond, text):
        verdicts.append(Verdict(bool(cond), 0.0, "" if cond else text))

    expect(data.shape == (n + 1, 4), f"shape {data.shape}")
    if data.shape != (n + 1, 4):
        return verdicts
    k, k_over_n, mass, lc = data.T
    expect(np.array_equal(k, np.arange(n + 1)), "k column")
    expect(np.array_equal(k_over_n, np.arange(n + 1) / n), "k_over_n column")
    expect(np.isfinite(lc).all() and np.isfinite(mass).all(), "non-finite rows")
    expect(np.array_equal(lc, lc[::-1]), "log_coeff not symmetric under k <-> n-k")
    log_norm = side["log_norm"]
    expect(np.allclose(mass, np.exp(lc - log_norm), rtol=1e-12, atol=0.0), "mass column")
    expect(abs(math.fsum(mass) - 1.0) <= 1e-9, f"masses sum to {math.fsum(mass)!r}")
    a, z = info["a"], info["z"]
    verdicts += check_op(Op("omega", (a, z)), side["y_omega"])
    verdicts += check_op(Op("omega_finite_n", (n, a, z)), side["omega_bar"])
    expect(side["p"] == 1.0 + 2.0 * side["y_omega"] / n
           and side["q"] == 1.0 + 2.0 * z / n, "p, q do not follow from y_omega and z")
    ref = O.PqReference(n, side["p"], side["q"])
    verdicts += check_log_coeffs(ref, [(kk, float(lc[kk]))
                                       for kk in pq_samples(n, side["peaks"])])
    verdicts += check_peaks(ref, side["peaks"], float(np.abs(lc).max()))
    return verdicts
