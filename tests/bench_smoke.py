"""The benchmark's correctness smoke: every workload at seed 1 for 5 s, untraced then traced.

Run it from anywhere as `python3 tests/bench_smoke.py`. It runs `perfbench/run.py`
six times, prints each run's output, and exits 1 naming every requirement that a
run breaks. No timing is gated: the requirements are correctness and counts.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

RUN_PY = str(Path(__file__).resolve().parents[1] / "perfbench" / "run.py")
RUNS = [(workload, False) for workload in ("kn_curvature", "rn_detg_roots", "vdw_closed_fit")]
RUNS += [(workload, True) for workload in ("rn_detg_roots", "vdw_closed_fit", "kn_curvature")]

# (metric, floor, ceiling): a run breaks the rule when the metric is missing or outside them
EVERY_RUN = [
    # the run measured its metrics, and every scan and eval passed its workload's check
    ("correct", True, True),
    # no scan, eval or set-up probe exited non-zero or failed its check
    ("failed", 0, 0),
]
EVERY_TRACED_RUN = [
    # every workload has det-g roots, so a locus that stops calling metric_determinant reads 0
    ("analysis.find_singular_locus.det_evals", 1, math.inf),
    # every tape runs on coefficient arrays, so a traced scan multiplies no Jet objects
    ("jets.mul_calls", 0, 0),
]
TRACED = {
    "rn_detg_roots": [
        # only each det-g evaluation's output is a jet, one per batch
        ("jets.jet_allocs", 0, 12),
        # one det-g batch for the grid and one per locus step, and brackets close in a few steps
        ("geometry.metric_determinant.calls", 0, 9),
    ],
    "kn_curvature": [
        # only each curvature evaluation's output is a jet, one per batch
        ("jets.jet_allocs", 0, 13),
        # the Hessian curvature workload, so a scan that bypasses this entry point reads 0
        ("geometry.scalar_curvature.calls", 1, math.inf),
    ],
    "vdw_closed_fit": [
        # the direct metric's tape wraps only its distinct entries in jets, not every step
        ("jets.jet_allocs", 0, 48),
        # the direct-metric workload, so a direct route that bypasses component_jets reads 0
        ("geometry.component_jets.calls", 1, math.inf),
    ],
}


def rules(workload: str, traced: bool) -> list[tuple]:
    """The (metric, floor, ceiling) rules of one run of `workload`."""
    return EVERY_RUN + (EVERY_TRACED_RUN + TRACED[workload] if traced else [])


def violations(workload: str, traced: bool, returncode: int, stdout: str) -> list[str]:
    """The requirements one run of `workload` breaks, given its exit code and stdout."""
    run = f"{workload} --trace {traced:d}"
    broken = [] if returncode == 0 else [f"{run}: run.py exited {returncode}"]
    try:
        result = json.loads(stdout.splitlines()[-1])
        values = {**{name: m["value"] for name, m in result["metrics"].items()}, **result}
    except (IndexError, KeyError, TypeError, ValueError):
        return broken + [f"{run}: the last line of stdout is not a JSON result"]
    for name, floor, ceiling in rules(workload, traced):
        value = values.get(name)
        if value is None or not floor <= value <= ceiling:
            broken.append(f"{run}: {name} is {value}, outside [{floor}, {ceiling}]")
    return broken


def main() -> int:
    broken = []
    for workload, traced in RUNS:
        args = ["--workload", workload, "--seed", "1", "--seconds", "5", "--trace", f"{traced:d}"]
        print("==", *args, flush=True)
        run = subprocess.run([sys.executable, RUN_PY, *args], stdout=subprocess.PIPE, text=True)
        print(run.stdout, end="", flush=True)
        broken += violations(workload, traced, run.returncode, run.stdout)
    for line in broken:
        print("benchmark smoke failed:", line, file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
