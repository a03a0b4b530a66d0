"""One pass over a workload's ops, in a fresh interpreter.

Usage: python3 hcbench/worker.py MODE OPS_JSON OUT_JSON
MODE is `plain` (timed ops), `trace` (ops under the span tracer),
`profile` (ops under cProfile) or `import` (set-up time only).

The import of hypercircle.cli is timed first, before anything else is
imported, because that is the set-up every CLI user pays.  Each op is
one in-process `cli.main(argv)` call with stdout and stderr captured.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import hypercircle.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

import contextlib  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from fractions import Fraction  # noqa: E402

from hypercircle import kernel  # noqa: E402

from tracer import Tracer  # noqa: E402

_REF_VALUES = [Fraction(i, i + 7) for i in range(1, 40)]


def reference_s():
    """Best of three timings of a fixed Fraction and dict kernel.

    The kernel does the kind of work the program's hot loops do, so its
    time tracks how fast this machine runs Python right now.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for x in _REF_VALUES:
            for y in _REF_VALUES[:8]:
                acc += x * y
                seen[x.numerator, y.denominator] = acc
        best = min(best, time.perf_counter() - start)
    return best


def run_op(call, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    return {"s": time.perf_counter() - start, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def module_shares(prof):
    """Share of profiled self time per module (file stem)."""
    totals = {}
    for (filename, _, _), (_, _, tottime, _, _) in \
            pstats.Stats(prof).stats.items():
        stem = os.path.splitext(os.path.basename(filename))[0]
        totals[stem] = totals.get(stem, 0.0) + tottime
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in totals.items()}


def main(mode, ops_path, out_path):
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    result = {
        "import_s": IMPORT_S,
        "import_ref_s": reference_s(),
        "env": {"backend": kernel.backend_name(),
                "python": platform.python_version(),
                "nproc": os.cpu_count()},
    }
    if mode != "import":
        tracer = Tracer() if mode == "trace" else None
        prof = cProfile.Profile() if mode == "profile" else None
        if tracer:
            result["bindings_patched"] = tracer.install()
            call = tracer.run_op
        else:
            def call(fn, argv):
                return fn(argv)
        refs = [reference_s()]
        outs = []
        if prof:
            prof.enable()
        for op in ops:
            outs.append(run_op(call, op["argv"]))
            if not prof:
                refs.append(reference_s())
        if prof:
            prof.disable()
            result["shares"] = module_shares(prof)
        result["ops"] = outs
        result["refs"] = refs
        if tracer:
            result["spans"] = tracer.stats
            result["gb"] = {"repeats": tracer.gb_repeats,
                            "basis_max": tracer.gb_basis_max,
                            "coeff_bits_max": tracer.gb_bits_max}
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
