"""gtdkit benchmark: CLI scan workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): rn_detg_roots, kn_curvature,
vdw_closed_fit. Each runs its `gtdkit scan` and `gtdkit eval` invocations
in-process through `gtdkit.cli.main`, in cycles of one scan, a slice of
evals and one fresh-process set-up probe, for at most `--seconds`; every
output is checked outside the timed region, and an operation fails on a
non-zero exit code or a failed check.

`--trace 0` reports the end-to-end metrics, with no tracing installed:
run_ref (mean wall time of one scan, report written, over the mean time of
the host-speed reference `reference_seconds` in the same run), eval_ref
(mean of one eval's wall time over the reference timed right after it),
setup_s (median over fresh interpreters of importing gtdkit, resolving the
system and evaluating the first grid point, numpy already imported) and
peak_rss_mb (peak RSS of a fresh process that runs only the workload). The
wall times run_s and eval_ms are printed but not gated; see README.md for
why. `--trace 1` alternates untraced and traced scans and reports the
per-layer metrics of the traced ones (see tracing.py), plus the tracing
overhead, traced scan time over untraced scan time.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The process exits 2
without a result when the gtdkit sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch reports and span files, inside the checkout

EVAL_SHARE = 0.25  # share of the timed window spent on evals, interleaved with scans
REF_BURST = 10  # reference timings taken before and after every scan
PROBE_TIMEOUT_S = 150


_REF_ARRAY = np.linspace(1.0, 2.0, 35)


def reference_seconds() -> float:
    """Wall time of a fixed host-speed reference, independent of gtdkit.

    The host this benchmark was tuned on runs in two speed states, about a
    factor 2 apart for this kind of code, that last from seconds to minutes,
    so wall times of whole runs drift between runs far beyond any useful
    bound. The reference does the same mix of work as the jet engine, small
    numpy operations on a 35-coefficient array (the largest jets here) and
    float conversions, and slows down with it. Keep it unchanged: ratios
    from different commits compare only while the reference is the same.
    """
    x = _REF_ARRAY
    start = time.perf_counter()
    for _ in range(150):
        y = x * x + x
        float(y[0])
    return time.perf_counter() - start


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    """Informational only: nothing here is gated."""
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),  # the CLI's default --workers
        "src_lines": src_lines,
    }


def summary(samples: list[float]) -> str:
    """Median, quartiles, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive") if n > 1 else ordered * 3
    text = f"median {median:.6g}, quartiles {q1:.6g} {q3:.6g}, n={n}; "
    if n < 11:
        return text + f"no percentile has 10 samples beyond it, max {ordered[-1]:.6g}"
    return text + f"p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]:.6g}"


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path):
        from gtdkit import cli

        self.cli = cli
        self.report_path = workdir / "report"
        self.inputs = workloads.generate(workload, seed, str(self.report_path))
        self.expected_eval = workloads.eval_oracle(workload)
        self.attempted = 0
        self.failed = 0

    def _record(self, what: str, rc, errors: list[str]) -> bool:
        self.attempted += 1
        if rc != 0:
            errors = [f"exit code {rc}"] + errors
        if errors:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(errors[:5]), file=sys.stderr)
        return not errors

    def _call(self, argv: list[str]) -> tuple[object, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            seconds = time.perf_counter() - start
        return rc, out.getvalue(), seconds

    def scan(self, tracer=None) -> float | None:
        """One timed scan; its wall seconds, or None when it failed."""
        self.report_path.unlink(missing_ok=True)
        gc.collect()
        try:
            if tracer is None:
                rc, stdout, seconds = self._call(self.inputs.scan_args)
            else:
                with tracer:
                    rc, stdout, seconds = self._call(self.inputs.scan_args)
            errors = self.check_scan(stdout, self.report_path)
        except Exception:
            traceback.print_exc()
            rc, errors = "exception", []
        return seconds if self._record("scan", rc, errors) else None

    def check_scan(self, stdout: str, path: Path) -> list[str]:
        if not path.exists():
            return ["no report written"]
        return workloads.check_scan(self.inputs, stdout, path.read_text())

    def eval(self) -> float | None:
        """One timed eval; its wall seconds, or None when it failed."""
        try:
            rc, stdout, seconds = self._call(self.inputs.eval_args)
            errors = workloads.check_eval(stdout, self.expected_eval)
        except Exception:
            traceback.print_exc()
            rc, errors = "exception", []
        return seconds if self._record("eval", rc, errors) else None

    def probe(self, full: bool = False) -> dict | None:
        """Set-up seconds of a fresh interpreter; with `full` it also runs the
        whole workload and reports its peak RSS. None when it failed."""
        spec = {"setup": self.inputs.setup_args}
        if full:
            probe_report = self.report_path.with_name("probe_report")
            scan = list(self.inputs.scan_args)
            scan[scan.index("--output") + 1] = str(probe_report)
            spec.update(scan=scan, eval=self.inputs.eval_args)
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(SRC), json.dumps(spec)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            self._record("probe", f"none, killed after {PROBE_TIMEOUT_S} s", [])
            return None
        except (json.JSONDecodeError, IndexError):
            self._record("probe", f"{proc.returncode}", [proc.stderr[-2000:]])
            return None
        ok = self._record("setup eval", result["setup_rc"], [])
        if full:
            scan_errors = self.check_scan(result["scan_stdout"], probe_report)
            ok &= self._record("probe scan", result["scan_rc"], scan_errors)
            eval_errors = workloads.check_eval(result["eval_stdout"], self.expected_eval)
            ok &= self._record("probe eval", result["eval_rc"], eval_errors)
        return result if ok else None


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    full = bench.probe(full=True)
    rss = full and full["peak_rss_mb"]
    setup = [full["setup_s"]] if full else []
    bench.eval()  # warm-up: lazy jet tables of this workload's shapes
    scans, evals, eval_ratios, refs = [], [], [], []
    start = cycle_start = time.perf_counter()
    deadline = start + seconds
    while True:
        refs += [reference_seconds() for _ in range(REF_BURST)]
        took = bench.scan()
        if took is not None:
            scans.append(took)
        refs += [reference_seconds() for _ in range(REF_BURST)]
        slice_end = time.perf_counter() + EVAL_SHARE / (1 - EVAL_SHARE) * (took or 1.0)
        while True:
            took_eval = bench.eval()
            # an eval is short enough to share its host state with the
            # reference taken right after it; a scan is not
            refs.append(reference_seconds())
            if took_eval is not None:
                evals.append(took_eval)
                eval_ratios.append(took_eval / refs[-1])
            if time.perf_counter() >= slice_end:
                break
        # set-up samples spread over the window, not taken in one burst, so
        # that they do not all share one state of a noisy host
        probe = bench.probe()
        if probe:
            setup.append(probe["setup_s"])
        now = time.perf_counter()
        # start no cycle that would end past the window
        if now + (now - cycle_start) > deadline:
            break
        cycle_start = now
    if not (scans and evals and setup and rss):
        return {}
    ms = [1e3 * t for t in evals]
    # Means, not medians: the host's two speed states slow gtdkit and the
    # reference by different factors, and the median of a two-state mixture
    # jumps between the states as their shares of a run change, while a mean
    # moves in proportion. A scan averages the states over its seconds, and
    # the mean reference does the same over the run.
    run_ref = statistics.fmean(scans) / statistics.fmean(refs)
    eval_ref = statistics.fmean(eval_ratios)
    print(f"run_s        s: {summary(scans)}")
    print(f"eval_ms      ms: {summary(ms)}")
    print(f"ref_ms       ms, host-speed reference: {summary([1e3 * t for t in refs])}")
    print(f"run_ref      {run_ref:.6g} ref: mean run_s over mean reference")
    print(f"eval_ref     {eval_ref:.6g} ref: mean of each eval over the reference right after it")
    print(f"setup_s      s, fresh processes: {summary(setup)}")
    print(f"peak_rss_mb  {rss:.6g} MB")
    return {
        "run_ref": run_ref,
        "eval_ref": eval_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def measure_traced(
    bench: Bench, seconds: float, env: dict, run_prefix: str, units: dict[str, str]
) -> dict[str, float]:
    bench.eval()  # warm-up
    plain, traced, layers, last = [], [], [], None
    pair_start = time.perf_counter()
    deadline = pair_start + seconds
    for pair in itertools.count():
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                took = bench.scan()
                if took is not None:
                    plain.append(took)
                continue
            tracer = tracing.Tracer(f"{run_prefix}-{pair}")
            took = bench.scan(tracer)
            if took is not None:
                traced.append(took)
                layers.append(tracing.layer_metrics(tracer))
                last = tracer
        now = time.perf_counter()
        if now + (now - pair_start) > deadline:
            break
        pair_start = now
    if not (plain and traced):
        return {}
    # median_low: a value one traced run actually measured, so counts stay whole
    values = {key: statistics.median_low(run[key] for run in layers) for key in layers[0]}
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    run_s = statistics.median(traced)
    print(f"traced run_s {run_s:.6g} s over {len(traced)} runs; untraced {statistics.median(plain):.6g} s")
    for key, value in values.items():
        share = f"  {100 * value / run_s:5.1f}% of traced run_s" if key.endswith(".s") else ""
        print(f"{key:40s} {value:.6g} {units[key]}{share}")
    span_file = OUT / f"trace-{run_prefix}.json"
    record = {
        "env": env,
        "run": last.run_id,
        "metrics": values,
        "span_columns": tracing.SPAN_COLUMNS,
        "spans": tracing.span_rows(last),
    }
    span_file.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"spans of the last traced run: {span_file.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gtdkit" / "cli.py").is_file():
        print(f"error: gtdkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    env = environment()
    print("env: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, workdir)
        print("scan: gtdkit " + " ".join(bench.inputs.scan_args))
        print("eval: gtdkit " + " ".join(bench.inputs.eval_args))
        if args.trace:
            values = measure_traced(bench, args.seconds, env, f"{args.workload}-{args.seed}", units)
        else:
            values = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if values and set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    if not values:
        print("error: some kind of operation never succeeded; no metrics", file=sys.stderr)
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if key in values}
    rate = bench.failed / max(bench.attempted, 1)
    print(f"error_rate   {rate:.6g} ({bench.failed} failed of {bench.attempted} operations)")
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
