"""Fresh-process probe for set-up time and peak memory.

Run as `python3 perfbench/probe.py SRC_DIR JSON_SPEC`. The spec holds
`setup` (eval argv for the first grid point) and optionally `scan` and
`eval` (argv lists of the whole workload). numpy is imported before the
clock starts, because the set-up time is meant to cover gtdkit only. Prints
one JSON line: set-up seconds, exit codes, captured stdout of the workload
commands, and this process's peak RSS in MB.
"""

import contextlib
import io
import json
import resource
import sys
import time

import numpy  # noqa: F401  (imported before timing on purpose)


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
    return rc, out.getvalue()


def probe(src: str, spec: dict) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from gtdkit import cli

    setup_rc, _ = _run(cli.main, spec["setup"])
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "setup_rc": setup_rc}
    for key in ("scan", "eval"):
        if key in spec:
            result[key + "_rc"], result[key + "_stdout"] = _run(cli.main, spec[key])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1], json.loads(sys.argv[2]))))
