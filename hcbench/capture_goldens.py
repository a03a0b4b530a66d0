"""Write goldens.json: exit code and stdout of every golden op.

Golden ops run the bundled inputs and the fixed conic lists, whose
answers are published results.  Capture them only from a commit whose
answers are trusted (the acceptance suite passes on it), from the root
of the checkout:

    python3 hcbench/capture_goldens.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, "src")

import workloads  # noqa: E402
from hypercircle import cli  # noqa: E402


def main():
    goldens = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.GENERATORS:
            for op in workloads.build(name, 0, tmp):
                if op["check"] != "golden" or op["name"] in goldens:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(op["argv"])
                goldens[op["name"]] = {"argv": op["argv"], "code": code,
                                       "stdout": out.getvalue()}
    with open(os.path.join(HERE, "goldens.json"), "w",
              encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written")


if __name__ == "__main__":
    main()
