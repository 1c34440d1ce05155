"""Golden CLI transcripts.

``cli_golden.json`` holds, for about 200 ``pqlambert`` commands (every
verb, both ``--format`` values, the usage texts and the error messages),
the exit code, stdout and stderr of an in-process run, plus the SHA-256 of
every file the command writes.  Temporary paths are replaced by ``TMP``.
A command that ends in an uncaught exception records its class and
message, as the last line of a traceback would.  The test replays every
command and requires the same transcript, so a change to the CLI's
control flow that claims to change no output is held to that claim.

After an intended output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and state the change.
"""

import hashlib
import json
import os
import tempfile
from unittest import mock

import pytest

from pqlambert import cli
from test_cli import Runner

GOLDEN_FILE = os.path.join(os.path.dirname(__file__), "cli_golden.json")

_SWEEPS = [
    "f --a 0.5 --lo -8 --hi 1 --count 7",
    "f --a 2/3 --lo -3 --hi 3 --count 4 --format json",
    "psi --branch principal --a 0.37 --lo -0.05 --hi 2 --count 6",
    "psi --branch lower --a 0.37 --lo -0.2 --hi -1e-6 --count 5 --scale log",
    "psi0 --a 3/5 --lo -0.2 --hi 10 --count 5",
    "psi1 --a 0.5 --lo -0.1 --hi 0.1 --count 5",
    "psi1 --a 0.5 --lo -1e-3 --hi -1e-5 --count 3 --format json",
    "omega --a 0.75 --lo -10 --hi -0.01 --count 7 --scale log",
    "omega --a 1/3 --lo -5 --hi -0.5 --count 5",
    "omega --a 1/2 --lo -5 --hi -0.5 --count 4 --format json",
    "omega --a 1/5 --lo -30 --hi -0.1 --count 4",
    "omega --a 0 --lo -800 --hi -700 --count 5",
    "omega --a 0 --lo -3 --hi -0.1 --count 4",
    "omega --a 0.5 --lo -1 --hi 1 --count 3",
    "W0 --lo -0.36 --hi 10 --count 5",
    "Wm1 --lo -0.36 --hi -1e-300 --count 5 --scale log",
    "Wm1 --lo -0.5 --hi 0.1 --count 4 --format json",
    "f --a 0.5 --lo 2 --hi 3 --count 1",
    "f --a 0.5 --lo -2 --hi -1 --count 1 --scale log",
]

COMMANDS = [
    # help and usage
    "", "--help", "bogus", "--version",
    *(f"{verb} --help" for verb in ("eval", "sweep", "series", "integrate", "pqdist",
                                    "envelope", "selfcheck")),
    "eval", "eval omeg", "eval omega --zz -5", "eval omega --format xml",
    "eval omega --form json --a 0.5 --z -1", "eval omega --z abc", "eval omega --a",
    "eval psi --branch middle --a 0.5 --x 1", "eval omega --a 0.5 --z -1 extra",
    "sweep f --a 0.5 --lo 1", "sweep f --a 0.5 --lo 0 --hi 1 --count x",
    "sweep f --a 0.5 --lo 0 --hi 1 --scale cubic",
    "series", "series --a 0.5 --kind bogus", "series --a 0.5 --order 2.5",
    "integrate", "integrate --a 0.5 --target x", "pqdist --n 8",
    "pqdist --a 0.5 --z -1 --out OUT/d.csv", "envelope", "selfcheck --level medium",
    # eval: every function, both formats
    "eval f --a 0.5 --x 1", "eval f --a 1/3 --x -2 --format json", "eval f --a 0.37 --x 800",
    "eval psi --branch principal --a 0.37 --x 0.3",
    "eval psi --branch lower --a 0.37 --x -0.05 --format json",
    "eval psi0 --branch principal --a 0.5 --x 1", "eval psi0 --a 0.37 --x 1e308",
    "eval psi0 --a 0.37 --x -0.05", "eval psi1 --a 0.37 --x -0.05 --format json",
    "eval psi0 --a 1/3 --x 1", "eval psi1 --a 1/3 --x -0.1", "eval psi0 --a 1/2 --x 0.25",
    "eval psi1 --a 1/5 --x -0.01", "eval psi0 --a 3/5 --x 1e150",
    "eval psi1 --a 3/5 --x -0.2 --format json", "eval psi0 --a 1/7 --x 2",
    "eval psi0 --a 2/3 --x 2", "eval psi1 --a 1e-300 --x -1e-301",
    "eval psi0 --a 5e-324 --x 1e-310",
    "eval omega --a 1/2 --z -5", "eval omega --a 1/2 --z -5 --format json",
    "eval omega --a 0.37 --z -2", "eval omega --a 0.37 --z -0.05 --format json",
    "eval omega --a 1/3 --z -3", "eval omega --a 1/5 --z -10", "eval omega --a 3/5 --z -1",
    "eval omega --a 0 --z -2", "eval omega --a 0 --z -0.5 --format json",
    "eval omega --a 0 --z -700", "eval omega --a 0 --z -740", "eval omega --a 0 --z -746",
    "eval omega --a 0 --z -1e-310", "eval omega --a 1e-300 --z -800",
    "eval omega --a 0.5 --z -5e-324", "eval omega --a 0.5 --z -1e300",
    "eval omega_n --a 1/2 --z -5 --n 1024", "eval omega_n --a 0.37 --z -1 --n 16 --format json",
    "eval omega_n --a 0 --z -1 --n 64", "eval W0 --x -0.033689734995427337",
    "eval W0 --x 10 --format json", "eval W0 --x 0", "eval W0 --x -0.36787944117144233",
    "eval Wm1 --x -0.1", "eval Wm1 --x -1e-300 --format json", "eval Wm1 --x -1e-320",
    "eval W0 --branch principal --x 1", "eval W0 --a 0.5 --x 1",
    # eval: every error message
    "eval f --a 0.5", "eval f --x 1", "eval psi --a 0.5 --x -0.1",
    "eval psi0 --branch lower --a 0.5 --x -0.1", "eval Wm1 --branch principal --x -0.1",
    "eval psi0 --a 0.5", "eval psi1 --a 0.5 --x 0.1", "eval psi0 --a 0.5 --x -1",
    "eval psi0 --a 1e-300 --x 1e20", "eval psi0 --a 1 --x 1", "eval psi1 --a 1 --x -0.1",
    "eval omega --a 1/2", "eval omega --a 1/2 --z 0.5", "eval omega --a 1/2 --z -inf",
    "eval omega --a 1/2 --z nan", "eval omega --a 1 --z -1", "eval omega_n --a 0.5 --z -1",
    "eval omega_n --a 0.5 --n 4", "eval omega_n --a 0.5 --z -1 --n 0",
    "eval omega_n --a 0.481815057342137 --z -2.087154925246466e-47 --n 2",
    "eval omega_n --a 0.5 --z -5e-324 --n 4", "eval W0 --x -1", "eval Wm1 --x 0.5",
    "eval W0", "eval f --a 1.5 --x 1", "eval f --a -0.5 --x 1",
    *(f"eval omega --a {a} --z -1" for a in ("abc", "1/0", "1/2/3", "nan", "inf", "x/2",
                                             "3/2", "0/1")),
    "eval f --a 0.5 --x inf",
    # sweep
    *(f"sweep {args}" for args in _SWEEPS),
    "sweep omega --a 1/3 --lo -5 --hi -0.5 --count 5 --out OUT/s.csv",
    "sweep psi0 --a 0.37 --lo -0.05 --hi 3 --count 9 --format json --out OUT/s.json",
    "sweep W0 --lo -0.3 --hi 1 --count 3 --out OUT/missing/s.csv",
    "sweep f --a 0.5 --lo 1 --hi -1", "sweep f --a 0.5 --lo 1 --hi 1",
    "sweep f --a 0.5 --lo 0 --hi 1 --count 0", "sweep f --a 0.5 --lo 0 --hi 1 --count 10000001",
    "sweep f --lo 0 --hi 1", "sweep f --a 2 --lo 0 --hi 1", "sweep f --a abc --lo 0 --hi 1",
    "sweep omega --a 0.5 --lo -1 --hi 0 --scale log",
    "sweep omega --a 0.5 --lo -1 --hi 1 --scale log", "sweep psi --a 0.5 --lo -0.1 --hi 1",
    "sweep psi1 --branch principal --a 0.5 --lo -0.1 --hi -0.01",
    "sweep omega --a 1 --lo -2 --hi -1 --count 2",
    # series
    "series --a 1/2", "series --a 1/2 --kind taylor --order 3 --format json",
    "series --a 0.37 --kind branch-psi0 --order 4", "series --a 0.37 --kind branch-psi1 --order 3",
    "series --a 1/3 --kind branch-omega --order 5 --format json",
    "series --a 1/2 --kind asym-psi0 --terms 3", "series --a 1/2 --kind asym-psi1 --terms 2",
    "series --a 0.3 --kind asym-psi0", "series --a 0.3 --kind asym-psi1 --format json",
    "series --a 0.3 --kind asym-psi0 --order 2", "series --a 0.3 --kind asym-psi0 --terms 0",
    "series --a 1/2 --kind asym-psi0 --terms 30", "series --a 1/2 --kind taylor --order 50",
    "series --a 1/2 --kind branch-psi0 --order 0", "series --a 0 --kind taylor",
    "series --a 1 --kind branch-omega", "series --a abc",
    "series --a 0.5 --kind taylor --terms 3", "series --a 0.5 --kind branch-psi1 --terms 2",
    "series --a 0.5 --kind branch-omega --order 3 --terms 3",
    # integrate
    "integrate --a 1/3", "integrate --a 1/3 --target omega --format json",
    "integrate --a 1/2 --target psi0", "integrate --a 1/2 --target psi1 --format json",
    "integrate --a 0 --target omega", "integrate --a 1e-300 --target psi0",
    "integrate --a 1e-300 --target psi1", "integrate --a 1e-290 --target psi1",
    "integrate --a 5e-324", "integrate --a 1e-320 --rel-tol 1e-3",
    "integrate --a 1", "integrate --a 0 --target psi0", "integrate --a 1/0",
    "integrate --a 0.5 --rel-tol 1", "integrate --a 0.5 --target psi0 --rel-tol 1e-12",
    "integrate --a 0.5 --target psi1 --rel-tol 0.01",
    "integrate --a 0.999 --target omega", "integrate --a 0.999999999 --rel-tol 1e-10",
    # pqdist
    "pqdist --n 16 --a 1/2 --z -5 --out OUT/d.csv", "pqdist --n 8 --a 0 --z -2 --out OUT/z.csv",
    "pqdist --n 8 --p 1.1 --q 0.9 --out OUT/pq.txt", "pqdist --n 12 --a 0.37 --z -1 --out OUT/d",
    "pqdist --n 8 --p 1e300 --q 1e-300 --out OUT/e.csv",
    "pqdist --n 8 --p 1.1 --a 1/2 --z -1 --out OUT/x.csv", "pqdist --n 8 --p 1.1 --out OUT/x.csv",
    "pqdist --n 8 --a 1/2 --out OUT/x.csv", "pqdist --n 0 --a 0.5 --z -1 --out OUT/x.csv",
    "pqdist --n 16 --a abc --z -1 --out OUT/x.csv",
    "pqdist --n 8 --a 0.5 --z -1e300 --out OUT/x.csv",
    "pqdist --n 100000000000 --a 0.5 --z -1 --out OUT/x.csv",
    "pqdist --n 8 --p 0 --q 0 --out OUT/x.csv", "pqdist --n 8 --p 1 --q 1 --out OUT/x.csv",
    "pqdist --n 8 --a 0.5 --z -1 --out OUT/missing/x.csv",
    # envelope and selfcheck
    "envelope --a 1/2", "envelope --a 0.37 --format json", "envelope --a 0.999",
    "envelope --a 1e-300", "envelope --a 0", "envelope --a 1", "envelope --a abc",
    "selfcheck", "selfcheck --level full",
]


def transcript(command: str) -> dict:
    """Run one command in a fresh temporary directory (``OUT`` in the
    command names it) and return its normalised transcript."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        args = [tok.replace("OUT", tmp) for tok in command.split()]
        try:
            res = Runner().invoke(cli.main, args)
            rec = {"exit": res.exit_code, "stdout": res.output[:len(res.output) - len(res.stderr)],
                   "stderr": res.stderr}
        except Exception as exc:  # a process would print a traceback and exit 1
            rec = {"exit": 1, "stdout": "", "stderr": f"uncaught {type(exc).__name__}: {exc}"}
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        rec = {k: v.replace(tmp, "TMP") if isinstance(v, str) else v for k, v in rec.items()}
    return {"command": command, **rec, "files": files}


def _load():
    if not os.path.exists(GOLDEN_FILE):  # before the first generation
        return []
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


def test_golden_covers_every_command():
    assert [entry["command"] for entry in _load()] == COMMANDS


@pytest.mark.parametrize("entry", _load(), ids=lambda entry: entry["command"] or "(none)")
def test_transcript_is_unchanged(entry):
    assert transcript(entry["command"]) == entry


def main():
    entries = [transcript(command) for command in COMMANDS]
    with open(GOLDEN_FILE, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"wrote {len(entries)} transcripts to {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
