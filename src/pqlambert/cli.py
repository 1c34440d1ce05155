"""Command-line front end: evaluate functions, sweep grids, dump series
coefficients, check integral identities, build p,q-binomial distribution
files, and run the self-check suites.

All numeric logic lives in the library modules; the commands only parse
arguments, dispatch, and serialize.  ``eval`` and ``sweep`` dispatch
through one route table, and ``main`` is the one place where a library
error or an I/O failure becomes an exit code.  Floats are rendered with
17 significant digits so every emitted value round-trips bit-exactly.
Each verb imports the library modules it runs when it runs, so a process
loads only what its verb needs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import branches, core

EXIT_DOMAIN = 2
_CSV_BLOCK = 1 << 14  # rows that pqdist formats at a time


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_records(records, fieldnames, fmt, out):
    if fmt == "csv":
        out.write(",".join(fieldnames) + "\n")
        for rec in records:
            out.write(",".join(_fmt(rec.get(k, "")) for k in fieldnames) + "\n")
    else:
        import json

        for rec in records:
            parts = []
            for k in fieldnames:
                v = rec.get(k, None)
                if v is None or v == "":
                    parts.append(f'"{k}": null')
                elif isinstance(v, float):
                    parts.append(f'"{k}": {_fmt(v)}')
                elif isinstance(v, (int, bool)):
                    parts.append(f'"{k}": {json.dumps(v)}')
                else:
                    parts.append(f'"{k}": {json.dumps(str(v))}')
            out.write("{" + ", ".join(parts) + "}\n")


def _parse_a(text: str) -> core.AsymmetryParam:
    num, slash, den = text.strip().partition("/")
    try:
        num, den = (int(num), int(den)) if slash else (float(num), None)
    except ValueError:
        den = 0
    if den == 0:
        raise core.DomainError(f"--a must be a decimal or 'num/den', got {text!r}")
    return core.AsymmetryParam(num) if den is None else core.AsymmetryParam.from_rational(num, den)


class _Command:
    """One verb: the function that runs it and the arguments of its
    sub-parser.  ``callback`` is read at dispatch time, so a wrapper set on
    it sees every call."""

    def __init__(self, callback, arguments):
        self.callback = callback
        self.doc = callback.__doc__
        self.arguments = arguments


_COMMANDS: dict[str, _Command] = {}


def _command(name, *arguments):
    def register(fn):
        _COMMANDS[name] = _Command(fn, arguments)
        return fn
    return register


def _arg(*flags, **kwargs):
    return flags, kwargs


def _a_arg(**kwargs):
    return _arg("--a", dest="a_text", metavar="A", **kwargs)


def _writable_path(text: str) -> str:
    """An --out path; if it exists it must be readable and writable."""
    if os.path.exists(text) and not os.access(text, os.R_OK | os.W_OK):
        raise argparse.ArgumentTypeError(f"path {text!r} is not writable")
    return text


_FORMAT = _arg("--format", dest="fmt", choices=("csv", "json"), default="csv")
_BRANCH = ("principal", "lower")
_FUNCTIONS = ("f", "psi", "psi0", "psi1", "omega", "omega_n", "W0", "Wm1")
_P, _L = core.BranchId.PRINCIPAL, core.BranchId.LOWER
# The one dispatch of eval and sweep: function -> (input column, branch,
# needs --a, library call of (a, t)).  Each call looks its library function
# up when it runs, so a wrapper set on that function sees it.  omega_n,
# which eval alone offers, also takes --n.
_ROUTES = {
    "f": ("w", None, True, lambda a, w: core.forward(a, w)),
    "psi0": ("x", _P, True, lambda a, x: branches.psi(a, _P, x)),
    "psi1": ("x", _L, True, lambda a, x: branches.psi(a, _L, x)),
    "omega": ("z", None, True, lambda a, z: branches.omega(a, z)),
    "omega_n": ("z", None, True, None),
    "W0": ("x", _P, False, lambda a, x: core.lambert_w(_P, x)),
    "Wm1": ("x", _L, False, lambda a, x: core.lambert_w(_L, x)),
}


def _resolve_branch(function, branch_name):
    """Map a function name plus optional --branch to a concrete function."""
    if function == "psi":
        if branch_name is None:
            raise core.DomainError("function 'psi' requires --branch")
        return "psi0" if branch_name == "principal" else "psi1"
    branch = _ROUTES[function][1]
    if branch_name is not None and branch is not None and branch_name != branch.value:
        raise core.DomainError(f"--branch {branch_name} contradicts function {function}")
    return function


def _closed_form(function, a):
    """The closed-form call of psi0/psi1/omega at an exact rational a, or
    None.  eval takes its value from it; sweep adds omega's as a column."""
    classify = branches.ClosedFormTag.classify
    if function == "omega" and classify(a) in branches.OMEGA_CLOSED_FORMS:
        return branches.omega_closed_form
    if function in ("psi0", "psi1") and classify(a) is not branches.ClosedFormTag.NONE:
        return lambda a, x: branches.psi_closed_form(a, _ROUTES[function][1], x)
    return None


@_command(
    "eval",
    _arg("function", choices=_FUNCTIONS),
    _a_arg(help="asymmetry, decimal or exact 'num/den'"),
    _arg("--x", type=float, help="abscissa for f/psi0/psi1/W0/Wm1 (w for f)"),
    _arg("--z", type=float, help="argument for omega/omega_n"),
    _arg("--n", dest="n_value", type=int, help="sequence length for omega_n"),
    _arg("--branch", dest="branch_name", choices=_BRANCH,
         help="branch selector for the generic 'psi'"),
    _FORMAT,
)
def cmd_eval(function, a_text, x, z, n_value, branch_name, fmt):
    """Evaluate one function value with a residual diagnostic."""
    function = _resolve_branch(function, branch_name)
    column, _, needs_a, call = _ROUTES[function]
    rec, a = {"function": function}, None
    if needs_a:
        if a_text is None:
            raise core.DomainError("--a is required")
        a = _parse_a(a_text)
        rec["a"] = a.a
    if function == "omega_n":
        if z is None or n_value is None:
            raise core.DomainError("--z and --n are required")
        from . import pqbinom

        value = branches.omega_finite_n(n_value, a, z)
        if 1.0 + 2.0 * value / n_value <= 0.0:
            raise core.RangeError(f"omega_n = {value!r} is -n/2 to double precision, "
                                  "where p = 1 + 2y/n is 0 and the residual is undefined")
        params = pqbinom.PqParams.from_transition(n_value, a, z, value)
        k = round(n_value * (1.0 - a.a) / 2.0)
        rec.update(n=n_value, z=z, value=value,
                   residual=abs(pqbinom.equal_ratio_residual(params, k)))
    else:
        key, t = ("z", z) if column == "z" else ("x", x)
        if t is None:
            hint = " (the argument w)" if column == "w" else ""
            raise core.DomainError(f"--{key}{hint} is required")
        rec[key] = t
        rec["value"] = value = (_closed_form(function, a) or call)(a, t)
        if function != "f":  # the map at the value against the map at the input
            at_a = needs_a and (column == "x" or a.a > 0.0)
            fwd = (lambda w: core.forward(a, w)) if at_a else (lambda w: w * math.exp(w))
            rec["residual"] = abs(fwd(value) - (fwd(z) if column == "z" else x))
    _emit_records([rec], list(rec.keys()), fmt, sys.stdout)


def _sweep_grid(lo, hi, count, scale):
    if scale == "linear":
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)] if count > 1 else [lo]
    if lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0):
        raise core.DomainError("log scale requires nonzero endpoints of equal sign")
    sgn = -1.0 if lo < 0.0 else 1.0
    la, lb = math.log(abs(lo)), math.log(abs(hi))
    if count == 1:
        return [lo]
    return [sgn * math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


@_command(
    "sweep",
    _arg("function", choices=tuple(f for f in _FUNCTIONS if f != "omega_n")),
    _a_arg(),
    _arg("--lo", type=float, required=True),
    _arg("--hi", type=float, required=True),
    _arg("--count", type=int, default=101),
    _arg("--scale", choices=("linear", "log"), default="linear"),
    _arg("--branch", dest="branch_name", choices=_BRANCH),
    _FORMAT,
    _arg("--out", type=_writable_path),
)
def cmd_sweep(function, a_text, lo, hi, count, scale, branch_name, fmt, out):
    """Evaluate a function on a grid; domain violations flag the row."""
    function = _resolve_branch(function, branch_name)
    column, _, needs_a, call = _ROUTES[function]
    if not lo < hi:
        raise core.DomainError(f"requires lo < hi, got {lo} >= {hi}")
    if not 1 <= count <= 10_000_000:
        raise core.DomainError(f"count must be in [1, 1e7], got {count}")
    if needs_a and a_text is None:
        raise core.DomainError("--a is required for this function")
    a = _parse_a(a_text) if needs_a else None
    grid = _sweep_grid(lo, hi, count, scale)
    closed = _closed_form(function, a) if function == "omega" else None

    def evaluate(t):
        try:
            rec = {"value": call(a, t), "status": "ok"}
            if closed:
                rec["closed_form"] = closed(a, t)
            return rec
        except (core.DomainError, core.RangeError) as exc:
            return {"value": "", "status": f"domain_error: {exc}"}

    records = [{column: t, **evaluate(t)} for t in grid]
    fieldnames = [column, "value"] + (["closed_form"] if closed else []) + ["status"]
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _emit_records(records, fieldnames, fmt, fh)
    else:
        _emit_records(records, fieldnames, fmt, sys.stdout)


@_command(
    "series",
    _a_arg(required=True),
    _arg("--kind", choices=("taylor", "branch-psi0", "branch-psi1", "branch-omega",
                            "asym-psi0", "asym-psi1"), default="taylor"),
    _arg("--order", type=int, default=10),
    _arg("--terms", type=int,
         help="truncation order for the asym-* kinds (alias of --order)"),
    _FORMAT,
)
def cmd_series(a_text, kind, order, terms, fmt):
    """Print expansion coefficients (index, exponent, coefficient)."""
    from . import series

    a = _parse_a(a_text)
    which = kind.partition("-")[2]
    if terms is not None and not kind.startswith("asym-"):
        raise core.DomainError("--terms applies only to the asym-* kinds")
    if kind == "taylor":
        exp_step, exp_name = 1.0, "x"
        coeffs = series.taylor_at_zero(a, order).coeffs
    elif kind.startswith("branch-"):
        coeffs = series.branch_point_series(a, which, order).coeffs
        exp_step, exp_name = (0.5, "t") if which in ("psi0", "psi1") else (1.0, "u")
    else:
        # tail coefficients of log(2|x|)/(1 -+ a) + sum c_k V^k, where V is
        # the large/small argument power variable of each branch
        nterms = terms if terms is not None else min(order, series.TAIL_TERMS_MAX[which])
        exp_step, exp_name = 1.0, "Y" if which == "psi0" else "Z"
        coeffs = series.asymptotic_tail_coeffs(a, which, nterms)
    records = [{"index": i + 1, "variable": exp_name,
                "exponent": exp_step * (i + 1), "coefficient": c}
               for i, c in enumerate(coeffs)]
    _emit_records(records, ["index", "variable", "exponent", "coefficient"], fmt, sys.stdout)


@_command(
    "integrate",
    _a_arg(required=True),
    _arg("--target", choices=("omega", "psi0", "psi1"), default="omega"),
    _arg("--rel-tol", type=float, default=1e-6),
    _FORMAT,
)
def cmd_integrate(a_text, target, rel_tol, fmt):
    """Closed-form integral, quadrature value, and their difference."""
    from . import calculus

    a = _parse_a(a_text)
    if target == "omega":
        closed = calculus.integral_omega(a)
        quadv = calculus.integral_omega_quadrature(a, rel_tol)
    else:
        branch = _ROUTES[target][1]
        closed = calculus.integral_psi(a, branch)
        quadv = calculus.integral_psi_quadrature(a, branch, rel_tol)
    rec = {"target": target, "a": a.a, "closed_form": closed,
           "quadrature": quadv, "difference": abs(closed - quadv)}
    _emit_records([rec], list(rec.keys()), fmt, sys.stdout)


@_command(
    "pqdist",
    _arg("--n", dest="n_value", type=int, required=True),
    _a_arg(),
    _arg("--z", type=float),
    _arg("--p", type=float),
    _arg("--q", type=float),
    _arg("--out", type=_writable_path, required=True),
)
def cmd_pqdist(n_value, a_text, z, p, q, out):
    """Write the distribution as CSV plus a JSON sidecar with peak data."""
    import json

    from . import pqbinom

    sidecar: dict = {"n": n_value}
    if p is not None or q is not None:
        if p is None or q is None or a_text is not None or z is not None:
            raise core.DomainError("give either --p and --q, or --a and --z")
        params = pqbinom.PqParams(n=n_value, p=p, q=q)
        sidecar.update(a=None, z=None, y_omega=None, omega_bar=None)
    else:
        if a_text is None or z is None:
            raise core.DomainError("give either --p and --q, or --a and --z")
        a = _parse_a(a_text)
        y = branches.omega(a, z)
        params = pqbinom.PqParams.from_transition(n_value, a, z, y)
        sidecar.update(a=a.a, z=z, y_omega=y, omega_bar=branches.omega_finite_n(n_value, a, z))
    dist = pqbinom.build_distribution(params)
    masses = dist.masses()
    row = "%d,%.17g,%.17g,%.17g\n".__mod__  # "%.17g" % x is format(x, ".17g")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,k_over_n,mass,log_coeff\n")
        for start in range(0, n_value + 1, _CSV_BLOCK):
            ks = range(start, min(start + _CSV_BLOCK, n_value + 1))
            fh.writelines(map(row, zip(ks, [k / n_value for k in ks],
                                       masses[ks.start:ks.stop].tolist(),
                                       dist.log_coeffs[ks.start:ks.stop].tolist())))
    sidecar.update(p=params.p, q=params.q, peaks=list(dist.peaks), log_norm=dist.log_norm)
    root, ext = os.path.splitext(out)
    sidecar_path = (root + ".json") if ext.lower() == ".csv" else (out + ".json")
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out} and {sidecar_path}")


@_command("envelope", _a_arg(required=True), _FORMAT)
def cmd_envelope(a_text, fmt):
    """Exploratory envelope diagnostics: the rigorous threshold plus rough
    empirical crossover estimates (not contractual)."""
    from . import series

    a = _parse_a(a_text)
    rec = {"a": a.a, **series.envelope_crossover_estimates(a)}
    _emit_records([rec], list(rec.keys()), fmt, sys.stdout)


@_command("selfcheck", _arg("--level", choices=("fast", "full"), default="fast"))
def cmd_selfcheck(level):
    """Run the identity suites; exit 0 only if every suite passes."""
    from . import selfcheck

    results = selfcheck.run_selfcheck(level)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    sys.exit(1 if failed else 0)


def _attach_values(argv):
    """Rewrite each ``--opt value`` as ``--opt=value``.  Every option but
    --help takes a value, and argparse would read a value such as -1e-05
    or -inf as an option of its own."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            out.extend(argv[i:])
            break
        if tok.startswith("--") and "=" not in tok and tok != "--help" and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parser(prog, argv):
    """The parser for argv.  When argv starts with a verb, argparse hands
    every later token to that verb's sub-parser and consults no other, so
    only that one is built; otherwise (help, usage errors) all are."""
    verb = argv[0] if argv and argv[0] in main.commands else None
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__,
                                     allow_abbrev=False)
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="COMMAND")
    for name, command in main.commands.items():
        if verb in (None, name):
            sub = verbs.add_parser(name, help=command.doc, description=command.doc,
                                   allow_abbrev=False)
            for flags, kwargs in command.arguments:
                sub.add_argument(*flags, **kwargs)
    return parser


def main(args=None, prog_name=None):
    """Inverse branches of sinh(a*w)*exp(w), their transition function,
    and p,q-binomial distribution tools."""
    argv = _attach_values(sys.argv[1:] if args is None else list(args))
    options = vars(_parser(prog_name, argv).parse_args(argv))
    try:  # the one place a library or I/O error becomes an exit code
        main.commands[options.pop("verb")].callback(**options)
    except (core.DomainError, core.RangeError, core.AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1 if isinstance(exc, core.AccuracyError) else EXIT_DOMAIN)
    except OSError as exc:  # a failed write or close names no file
        where = exc.filename or options.get("out") or "stdout"
        print(f"error: I/O failure for {where}: {exc}", file=sys.stderr)
        sys.exit(1)


main.commands = _COMMANDS


if __name__ == "__main__":
    main()
