"""CLI tests: verbs, serialization round trips, error codes, and the
thin-adapter property (outputs match direct library calls)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import pqlambert.branches
import pqlambert.cli
from pqlambert.cli import main
from pqlambert.core import AsymmetryParam, BranchId, lambert_w
from pqlambert.branches import omega, psi
from pqlambert.pqbinom import PqParams, build_distribution


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr
    stderr: str


class Runner:
    """Runs the CLI in process with stdout and stderr captured."""

    def invoke(self, cli, args):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args=args, prog_name="pqlambert")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return Result(code, out.getvalue() + err.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return Runner()


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestEval:
    def test_omega_figure_value(self, runner):
        res = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z", "-5"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["value"]) == pytest.approx(-0.0891004, abs=5e-7)
        assert float(rows[0]["residual"]) <= 1e-14

    def test_psi0_value(self, runner):
        res = runner.invoke(main, ["eval", "psi0", "--a", "1/3", "--x", "1"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["value"]) == pytest.approx(1.5 * math.log(2.0),
                                                        rel=1e-13)

    def test_domain_error_exit_code(self, runner):
        res = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z", "0.5"])
        assert res.exit_code == 2
        assert "z < 0" in res.output or "z < 0" in (res.stderr or "")

    def test_lambert_and_finite_n(self, runner):
        res = runner.invoke(main, ["eval", "W0", "--x", str(-5 * math.exp(-5))])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["value"]) == pytest.approx(-0.0348858, abs=5e-7)
        res = runner.invoke(main, ["eval", "omega_n", "--a", "1/2", "--z", "-5",
                                   "--n", "1024"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["residual"]) <= 1e-10

    @pytest.mark.parametrize("n, a, z", [("2", "0.481815057342137", "-2.087154925246466e-47"),
                                         ("4", "0.5", "-5e-324")])
    def test_finite_n_root_at_minus_n_half(self, runner, n, a, z):
        # the root rounds to -n/2, where p = 0: an error line that names it
        res = runner.invoke(main, ["eval", "omega_n", "--a", a, "--z", z, "--n", n])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: omega_n = -{int(n) // 2}.0 is -n/2")

    @pytest.mark.parametrize("a, x", [("0.37", "1e308"), ("3/5", "1e150")])
    def test_top_of_range_values(self, runner, a, x):
        # the residual's f(psi) is finite above (1+a)*psi = 709, and the 3/5
        # closed form hands an overflowing radical to the solver
        res = runner.invoke(main, ["eval", "psi0", "--a", a, "--x", x])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["residual"]) <= 1e-12 * float(x)

    def test_json_format_round_trips(self, runner):
        res = runner.invoke(main, ["eval", "psi1", "--a", "0.5", "--x", "-0.1",
                                   "--format", "json"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["value"] == psi(0.5, BranchId.LOWER, -0.1)

    def test_generic_psi_with_branch_flag(self, runner):
        res = runner.invoke(main, ["eval", "psi", "--branch", "lower",
                                   "--a", "0.5", "--x", "-0.1"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["value"]) == psi(0.5, BranchId.LOWER, -0.1)
        res = runner.invoke(main, ["eval", "psi", "--a", "0.5", "--x", "-0.1"])
        assert res.exit_code == 2  # --branch required
        res = runner.invoke(main, ["eval", "psi0", "--branch", "lower",
                                   "--a", "0.5", "--x", "-0.1"])
        assert res.exit_code == 2  # contradictory selection


class TestSweep:
    def test_values_are_thin_adapters(self, runner):
        res = runner.invoke(main, ["sweep", "omega", "--a", "0.75", "--lo", "-10",
                                   "--hi", "-0.01", "--count", "7", "--scale", "log"])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header == ["z", "value", "status"]
        for row in rows:
            z = float(row["z"])
            # bit-exact round trip of the 17-significant-digit rendering
            assert float(row["value"]) == omega(0.75, z)
            assert row["status"] == "ok"

    def test_closed_form_column_for_exact_rational(self, runner):
        res = runner.invoke(main, ["sweep", "omega", "--a", "1/3", "--lo", "-5",
                                   "--hi", "-0.5", "--count", "5"])
        header, rows = parse_csv(res.output)
        assert "closed_form" in header
        for row in rows:
            assert float(row["closed_form"]) == pytest.approx(
                float(row["value"]), abs=1e-12)

    def test_no_closed_form_column_for_decimal(self, runner):
        res = runner.invoke(main, ["sweep", "omega", "--a", "0.3333", "--lo", "-5",
                                   "--hi", "-0.5", "--count", "3"])
        header, _ = parse_csv(res.output)
        assert "closed_form" not in header

    def test_domain_violations_flagged_not_fatal(self, runner):
        # psi1 over a range extending past 0 gives per-point domain errors
        res = runner.invoke(main, ["sweep", "psi1", "--a", "0.5", "--lo", "-0.1",
                                   "--hi", "0.1", "--count", "5"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        statuses = [row["status"] for row in rows]
        assert any(s == "ok" for s in statuses)
        assert any(s.startswith("domain_error") for s in statuses)
        for row in rows:
            if row["status"] != "ok":
                assert row["value"] == ""

    def test_forward_sweep_monotone_shape(self, runner):
        res = runner.invoke(main, ["sweep", "f", "--a", "2/3", "--lo", "-8",
                                   "--hi", "1", "--count", "41"])
        _, rows = parse_csv(res.output)
        vals = [float(r["value"]) for r in rows]
        m = 0.75 * math.log(0.2)  # minimizer at a=2/3: log((1-a)/(1+a))/(2a)
        ws = [float(r["w"]) for r in rows]
        for (w1, v1), (w2, v2) in zip(zip(ws, vals), zip(ws[1:], vals[1:])):
            if w2 <= m:
                assert v2 < v1
            if w1 >= m:
                assert v2 > v1

    def test_branch_pair_sweep(self, runner):
        lo = -3.0 / (8.0 * 4.0 ** (1.0 / 3.0)) * 0.999  # just inside L at a=3/5
        for fn in ("psi0", "psi1"):
            res = runner.invoke(main, ["sweep", fn, "--a", "3/5",
                                       "--lo", str(lo), "--hi", "-1e-3",
                                       "--count", "9"])
            assert res.exit_code == 0
            _, rows = parse_csv(res.output)
            assert all(r["status"] == "ok" for r in rows)

    def test_env_threads_deterministic(self, runner, monkeypatch):
        args = ["sweep", "psi0", "--a", "0.5", "--lo", "0", "--hi", "5",
                "--count", "400"]
        monkeypatch.setenv("PQLAMBERT_THREADS", "1")
        serial = runner.invoke(main, args).output
        monkeypatch.setenv("PQLAMBERT_THREADS", "4")
        threaded = runner.invoke(main, args).output
        assert serial == threaded

    def test_bad_range_rejected(self, runner):
        res = runner.invoke(main, ["sweep", "f", "--a", "0.5", "--lo", "1",
                                   "--hi", "-1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("verb", [
        ["sweep", "W0", "--lo", "-0.3", "--hi", "1", "--count", "3"],
        ["pqdist", "--n", "8", "--a", "0.5", "--z", "-1"]])
    def test_out_in_a_missing_directory(self, runner, tmp_path, verb):
        # main's error boundary turns the OSError into one line naming the
        # path, the same for both verbs that write files
        out = str(tmp_path / "missing" / "s.csv")
        res = runner.invoke(main, verb + ["--out", out])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"error: I/O failure for {out}: [Errno 2] ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("out", [True, False])
    def test_write_failure_without_a_filename(self, runner, tmp_path, monkeypatch, out):
        # an OSError from write or close carries no filename: the message
        # names the --out path, or stdout where there is none
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pqlambert.cli, "_emit_records", fail)
        path = str(tmp_path / "s.csv")
        res = runner.invoke(main, ["sweep", "W0", "--lo", "-0.3", "--hi", "1", "--count", "3"]
                            + (["--out", path] if out else []))
        assert res.exit_code == 1
        where = path if out else "stdout"
        assert res.stderr == f"error: I/O failure for {where}: [Errno 28] No space left on device\n"


class TestSeriesVerb:
    def test_taylor_coefficients(self, runner):
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", "taylor",
                                   "--order", "3"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["coefficient"]) == pytest.approx(2.0)
        assert float(rows[1]["coefficient"]) == pytest.approx(-4.0)

    def test_branch_kind_exponents_are_half_integer(self, runner):
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", "branch-psi0",
                                   "--order", "4"])
        _, rows = parse_csv(res.output)
        assert [float(r["exponent"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]

    def test_asymptotic_kinds_with_terms(self, runner):
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", "asym-psi0",
                                   "--terms", "3"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["coefficient"]) == pytest.approx(2.0 / 3.0)
        assert float(rows[1]["coefficient"]) == pytest.approx(-1.0 / 9.0)
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", "asym-psi1",
                                   "--terms", "2"])
        _, rows = parse_csv(res.output)
        assert float(rows[0]["coefficient"]) == pytest.approx(2.0)
        assert float(rows[1]["coefficient"]) == pytest.approx(5.0)

    @pytest.mark.parametrize("kind, terms", [("asym-psi0", 4), ("asym-psi1", 3)])
    def test_asymptotic_kinds_at_the_default_order(self, runner, kind, terms):
        # the default --order 10 is capped at each kind's own term limit
        res = runner.invoke(main, ["series", "--a", "0.3", "--kind", kind])
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert [int(r["index"]) for r in rows] == list(range(1, terms + 1))

    @pytest.mark.parametrize("kind", ["taylor", "branch-psi0", "branch-omega"])
    def test_terms_outside_the_asym_kinds_is_an_error(self, runner, kind):
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", kind, "--terms", "3"])
        assert (res.exit_code, res.stderr) == (
            2, "error: --terms applies only to the asym-* kinds\n")

    def test_order_validation(self, runner):
        res = runner.invoke(main, ["series", "--a", "1/2", "--kind", "taylor",
                                   "--order", "50"])
        assert res.exit_code == 2


class TestIntegrate:
    def test_omega_identity(self, runner):
        res = runner.invoke(main, ["integrate", "--a", "1/3", "--target", "omega"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["closed_form"]) == pytest.approx(
            -3.0 * math.pi ** 2 / 8.0, rel=1e-14)
        assert float(rows[0]["difference"]) <= 1e-6

    def test_psi_targets(self, runner):
        for target in ("psi0", "psi1"):
            res = runner.invoke(main, ["integrate", "--a", "1/2",
                                       "--target", target])
            assert res.exit_code == 0
            _, rows = parse_csv(res.output)
            assert float(rows[0]["difference"]) <= 1e-8

    def test_divergent_case(self, runner):
        res = runner.invoke(main, ["integrate", "--a", "1", "--target", "omega"])
        assert res.exit_code == 2
        assert "diverges" in res.output or "diverges" in (res.stderr or "")


class TestPqdist:
    def test_csv_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        res = runner.invoke(main, ["pqdist", "--n", "1024", "--a", "1/2",
                                   "--z", "-5", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,k_over_n,mass,log_coeff"
        assert len(lines) == 1026
        sidecar = json.loads((tmp_path / "dist.json").read_text())
        assert sidecar["n"] == 1024
        assert sidecar["y_omega"] == pytest.approx(-0.0891004, abs=5e-7)
        assert len(sidecar["peaks"]) == 2
        k_lo, k_hi = sidecar["peaks"]
        assert abs(k_lo - 256) <= 12 and abs(k_hi - 768) <= 12
        # masses round trip and sum to 1
        masses = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert sum(masses) == pytest.approx(1.0, abs=1e-10)

    def test_zero_limit_twin_peaks(self, runner, tmp_path):
        out = tmp_path / "zero.csv"
        res = runner.invoke(main, ["pqdist", "--n", "1024", "--a", "0",
                                   "--z", "-5", "--out", str(out)])
        assert res.exit_code == 0
        sidecar = json.loads((tmp_path / "zero.json").read_text())
        k_lo, k_hi = sidecar["peaks"]
        assert k_lo < 512 < k_hi

    def test_direct_pq_matches_library(self, runner, tmp_path):
        out = tmp_path / "direct.csv"
        res = runner.invoke(main, ["pqdist", "--n", "8", "--p", "1.1",
                                   "--q", "0.9", "--out", str(out)])
        assert res.exit_code == 0
        dist = build_distribution(PqParams(n=8, p=1.1, q=0.9))
        lines = out.read_text().strip().split("\n")[1:]
        for k, ln in enumerate(lines):
            assert float(ln.split(",")[3]) == float(dist.log_coeffs[k])

    def test_rows_across_blocks_match_the_value_format(self, runner, tmp_path):
        # rows are formatted a block at a time; each value is format(x, ".17g")
        n = 2 * pqlambert.cli._CSV_BLOCK + 5
        out = tmp_path / "blocks.csv"
        res = runner.invoke(main, ["pqdist", "--n", str(n), "--a", "0.37",
                                   "--z", "-2", "--out", str(out)])
        assert res.exit_code == 0
        params = PqParams.from_transition(n, AsymmetryParam(0.37), -2.0)
        dist = build_distribution(params)
        want = "".join(f"{k},{format(k / n, '.17g')},{format(m, '.17g')},{format(c, '.17g')}\n"
                       for k, (m, c) in enumerate(zip(dist.masses().tolist(),
                                                      dist.log_coeffs.tolist())))
        assert out.read_text() == "k,k_over_n,mass,log_coeff\n" + want

    def test_conflicting_parameterizations_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["pqdist", "--n", "8", "--p", "1.1",
                                   "--a", "1/2", "--z", "-1",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("p, q", [("inf", "0.5"), ("0.5", "inf")])
    def test_infinite_p_or_q_rejected(self, runner, tmp_path, p, q):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["pqdist", "--n", "8", "--p", p, "--q", q,
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "p and q must be finite" in res.output
        assert not out.exists()


class TestSelfcheck:
    def test_fast_passes_with_enough_suites(self, runner):
        res = runner.invoke(main, ["selfcheck", "--level", "fast"])
        assert res.exit_code == 0
        lines = [ln for ln in res.output.strip().split("\n") if ln.startswith("PASS")]
        assert len(lines) >= 8

    def test_fault_injection_fails(self, runner, monkeypatch):
        # corrupt the transition function: the involution suite must catch it
        real = pqlambert.branches.omega

        def corrupted(a, z):
            return real(a, z) * (1.0 + 1e-6)

        monkeypatch.setattr(pqlambert.branches, "omega", corrupted)
        res = runner.invoke(main, ["selfcheck", "--level", "fast"])
        assert res.exit_code == 1
        assert "FAIL" in res.output


class TestArgumentParsing:
    """Option values that argparse alone would read as options, and the
    registry that a tracer wraps."""

    def test_negative_exponent_values(self, runner):
        res = runner.invoke(main, ["eval", "psi1", "--a", "0.5", "--x", "-1e-05"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["value"]) == psi(0.5, BranchId.LOWER, -1e-05)
        res = runner.invoke(main, ["eval", "omega", "--a", "0.5", "--z", "-5e-324"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0]["z"]) == -5e-324
        assert float(rows[0]["value"]) == omega(0.5, -5e-324)

    def test_negative_sweep_range(self, runner):
        res = runner.invoke(main, ["sweep", "psi1", "--a", "0.5", "--lo", "-1e-3",
                                   "--hi", "-1e-5", "--count", "3"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert [float(r["x"]) for r in rows] == pytest.approx([-1e-3, -5.05e-4, -1e-5],
                                                              rel=1e-12)
        assert all(r["status"] == "ok" for r in rows)

    def test_attached_value(self, runner):
        joined = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z=-5"])
        spaced = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z", "-5"])
        assert joined.exit_code == spaced.exit_code == 0
        assert joined.output == spaced.output

    def test_non_finite_value_reaches_the_library(self, runner):
        res = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z", "-inf"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ") and "usage" not in res.stderr

    @pytest.mark.parametrize("args", [
        ["eval", "omega", "--a", "abc", "--z", "-1"],
        ["pqdist", "--n", "16", "--a", "abc", "--z", "-1", "--out", "OUT"],
        ["integrate", "--a", "1/0"],
        ["sweep", "f", "--a", "2", "--lo", "0", "--hi", "1"],
        ["pqdist", "--n", "0", "--a", "0.5", "--z", "-1", "--out", "OUT"],
        ["integrate", "--a", "0.5", "--rel-tol", "1"],
        ["integrate", "--a", "0.5", "--target", "psi0", "--rel-tol", "1e-12"],
        ["integrate", "--a", "0.5", "--target", "psi1", "--rel-tol", "0.01"],
    ])
    def test_bad_input_gives_an_error_line(self, runner, tmp_path, args):
        args = [str(tmp_path / "f.csv") if v == "OUT" else v for v in args]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.output

    def test_usage_errors_exit_2(self, runner):
        assert runner.invoke(main, []).exit_code == 2
        assert runner.invoke(main, ["eval", "omega", "--zz", "-5"]).exit_code == 2
        assert runner.invoke(main, ["eval", "omega", "--format", "xml"]).exit_code == 2
        assert runner.invoke(main, ["sweep", "f", "--a", "0.5", "--lo", "1"]).exit_code == 2

    def test_tiny_a_envelope_is_an_error_line(self, runner):
        # an error line, not a traceback
        res = runner.invoke(main, ["envelope", "--a", "1e-300"])
        assert res.exit_code == 2
        assert res.stderr == ("error: the envelope threshold at a = 1e-300 "
                              "exceeds the double range\n")

    def test_replaced_callback_is_called(self, runner, monkeypatch):
        command = main.commands["eval"]
        calls = []

        def wrapped(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        real = command.callback
        monkeypatch.setattr(command, "callback", wrapped)
        res = runner.invoke(main, ["eval", "omega", "--a", "1/2", "--z", "-5"])
        assert res.exit_code == 0 and res.output.startswith("function,")
        assert calls == [{"function": "omega", "a_text": "1/2", "x": None, "z": -5.0,
                          "n_value": None, "branch_name": None, "fmt": "csv"}]

    def test_every_verb_registered(self):
        assert set(main.commands) == {"eval", "sweep", "series", "integrate", "pqdist",
                                      "envelope", "selfcheck"}


def test_cli_import_loads_only_core_and_branches():
    src = str(Path(__file__).resolve().parents[1] / "src")
    lazy = ["click", "numpy", "pqlambert.series", "pqlambert.calculus",
            "pqlambert.parametrize", "pqlambert.pqbinom", "pqlambert.selfcheck"]
    probe = f"import sys\nimport pqlambert.cli\nprint([m for m in {lazy!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


# Help and usage texts as argparse prints them with every sub-parser built;
# building only the invoked verb's sub-parser must not change them.
TOP_HELP = """\
usage: pqlambert [-h] COMMAND ...

Inverse branches of sinh(a*w)*exp(w), their transition function, and
p,q-binomial distribution tools.

positional arguments:
  COMMAND
    eval      Evaluate one function value with a residual diagnostic.
    sweep     Evaluate a function on a grid; domain violations flag the row.
    series    Print expansion coefficients (index, exponent, coefficient).
    integrate
              Closed-form integral, quadrature value, and their difference.
    pqdist    Write the distribution as CSV plus a JSON sidecar with peak
              data.
    envelope  Exploratory envelope diagnostics: the rigorous threshold plus
              rough empirical crossover estimates (not contractual).
    selfcheck
              Run the identity suites; exit 0 only if every suite passes.

options:
  -h, --help  show this help message and exit
"""
EVAL_HELP = """\
usage: pqlambert eval [-h] [--a A] [--x X] [--z Z] [--n N_VALUE]
                      [--branch {principal,lower}] [--format {csv,json}]
                      {f,psi,psi0,psi1,omega,omega_n,W0,Wm1}

Evaluate one function value with a residual diagnostic.

positional arguments:
  {f,psi,psi0,psi1,omega,omega_n,W0,Wm1}

options:
  -h, --help            show this help message and exit
  --a A                 asymmetry, decimal or exact 'num/den'
  --x X                 abscissa for f/psi0/psi1/W0/Wm1 (w for f)
  --z Z                 argument for omega/omega_n
  --n N_VALUE           sequence length for omega_n
  --branch {principal,lower}
                        branch selector for the generic 'psi'
  --format {csv,json}
"""
USAGE = "usage: pqlambert [-h] COMMAND ...\npqlambert: error: "


@pytest.mark.parametrize("args, code, stdout, stderr", [
    (["--help"], 0, TOP_HELP, ""),
    (["eval", "--help"], 0, EVAL_HELP, ""),
    (["eval", "omega", "--zz", "-5"], 2, "", USAGE + "unrecognized arguments: --zz=-5\n"),
    (["bogus"], 2, "", USAGE + "argument COMMAND: invalid choice: 'bogus' (choose from "
     "'eval', 'sweep', 'series', 'integrate', 'pqdist', 'envelope', 'selfcheck')\n"),
    ([], 2, "", USAGE + "the following arguments are required: COMMAND\n"),
])
def test_help_and_usage_texts(runner, monkeypatch, args, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output[:len(res.output) - len(res.stderr)], res.stderr) == (
        code, stdout, stderr)


@pytest.mark.parametrize("argv, loaded", [
    (None, []),  # the import alone
    (["eval", "omega", "--a", "0.37", "--z", "-5"], []),
    (["eval", "omega", "--a", "1/3", "--z", "-5"], ["fractions"]),
])
def test_cli_process_imports(argv, loaded):
    """dataclasses is never imported, and fractions only for a num/den --a."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    call = f"main(args={argv!r})" if argv else "pass"
    probe = (f"import sys\nfrom pqlambert.cli import main\ntry:\n    {call}\n"
             "except SystemExit:\n    pass\n"
             "print([m for m in ('dataclasses', 'fractions') if m in sys.modules], "
             "file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert res.stderr.strip() == str(loaded)
