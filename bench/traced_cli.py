"""Child entry point of a traced CLI run.

Usage: python bench/traced_cli.py SPANS_OUT [pqlambert arguments...]

Imports the CLI, installs the span wrappers, runs
``pqlambert.cli.main`` with the given arguments, and writes the spans and
counters to SPANS_OUT (an .npz file) before exiting with the CLI's code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import pqlambert.cli

    import numpy as np
    import spans

    rec = spans.Recorder()
    spans.install(rec)
    code = 0
    try:
        pqlambert.cli.main(args=argv, prog_name="pqlambert")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        meta = {"counters": rec.counters(), "names": rec.names}
        np.savez(out_path, meta=np.array(json.dumps(meta)), **rec.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
