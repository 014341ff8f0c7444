"""Run one vermalab call in this fresh interpreter; report it on stdout.

    python3 perfbench/child.py '<spec>'

The spec is a JSON object: ``{"argv": [...]}`` for a command-line verb,
or ``{"lib": name, "args": [...]}`` for a library call in
``LIBRARY_CALLS``, plus ``"trace": true`` to wrap the traced functions
first.  The report is one JSON object: the exit code, any escaped
exception, the call's output text, the monotonic clock reading right
after ``import vermalab.cli`` (the parent subtracts its spawn time to get
the set-up time), the call's seconds, peak RSS and, when traced, the
span totals.
"""

import sys
import time
from os.path import abspath, dirname, join

sys.path.insert(0, join(dirname(dirname(abspath(__file__))), "src"))
import vermalab.cli  # noqa: E402  -- interpreter start + this import = set-up

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _nondegenerate(n):
    """``hecke.verify_nondegenerate(n)`` rendered as the CLI renders its
    Hecke rows; the CLI itself caps the nondegenerate check at n = 4."""
    checks = vermalab.hecke.verify_nondegenerate(n)
    rows = [{"model": "nondegenerate", "relation": c.family, "n": c.n,
             "indices": list(c.indices), "witnessOrPass": c.passed} for c in checks]
    passed = all(c.passed for c in checks)
    return vermalab.cli.render_json({"relations": rows, "allPassed": passed})


LIBRARY_CALLS = {"hecke.verify_nondegenerate": _nondegenerate}


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.install()
    out = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if "argv" in spec:
                rc = vermalab.cli.main(spec["argv"])
            else:
                out.write(LIBRARY_CALLS[spec["lib"]](*spec["args"]))
                rc = 0
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # the boundary of one measured call: record, report
        error = traceback.format_exc()
    call_s = time.perf_counter() - start
    report = {
        "rc": rc,
        "error": error,
        "output": out.getvalue(),
        "imported": IMPORTED,
        "call_s": call_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.report(call_s)
        report["trace"]["nf_cache"] = vermalab.heisenberg._nf_cached.cache_info()._asdict()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
