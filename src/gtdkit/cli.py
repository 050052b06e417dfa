"""Command-line interface.

Subcommands::

    gtdkit systems                         list built-in systems and metrics
    gtdkit eval  --system vdw --point S=1,V=2 [--quantity curvature]
    gtdkit scan  --system rn_closed --range S=0.5:10:500 --pin Q=1 --quantity detg
    gtdkit check legendre --n 2 --transform total --trials 100

`--system` accepts a built-in system name, a closed-form metric name, or a
path to a definition file ([system] or [metric] sections). Flags follow the
pattern `--range VAR=start:stop:count` (inclusive endpoints), `--pin
VAR=value`, `--point VAR=value,...`, `--params name=value,...`.

Exit codes: 0 success / check within tolerance, 1 check failed, 2 user input
error, 3 degenerate geometry, 4 output write failure.

Reports are deterministic. CSV uses fixed column order (coordinates in
declaration order, then values, then status), LF line endings, and floats
with 17 significant digits. JSON is strict RFC 8259 JSON with a
`schema_version` field: NaN is written `null`, +inf and -inf the strings
"inf" and "-inf", the tokens CSV writes. Each report is built by C-level
formatting: a CSV body is one `%` template applied to the whole table, and a
JSON report a few C-encoder calls, with a scan's rows one per line.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

# each command imports what only it needs: `scan` analysis, `check` phase_space,
# a JSON report json, so an eval loads none of them
from . import fundeq, geometry
from .errors import DegenerateMetricError, GtdError
from .geometry import HessianMetricField, MetricKind

if TYPE_CHECKING:
    from . import analysis, phase_space

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

CHECKS = ("contact", "euler", "first-law", "gibbs-duhem", "legendre")

DEFAULT_TOLERANCES = {
    "legendre": 1e-9,
    "euler": 1e-10,
    "gibbs-duhem": 1e-10,
    "contact": 1e-12,
    "first-law": 1e-12,
}

# sampling boxes for randomized checks on the built-in systems
_CHECK_BOXES = {
    "vdw": {"S": (0.5, 2.0), "V": (0.7, 5.0)},
    "ideal_gas": {"S": (0.5, 2.0), "V": (0.7, 5.0)},
    "kerr_newman": {"S": (1.0, 10.0), "J": (0.1, 1.5), "Q": (0.3, 1.5)},
    "reissner_nordstrom": {"S": (1.0, 10.0), "Q": (0.3, 1.5)},
    "kerr": {"S": (1.0, 10.0), "J": (0.1, 1.5)},
}


class UsageError(Exception):
    """Bad flag values detected after argparse; maps to exit code 2."""


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _number(text: str, what: str) -> float:
    """`text` as a finite float; NaN and +-inf give no meaningful scan or fit."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise UsageError(f"{what}: {text!r} is not a finite number")
    return value


def _parse_assignments(text: str, flag: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"{flag} expects NAME=VALUE items, got {chunk!r}")
        name, _, value = chunk.partition("=")
        out[name.strip()] = _number(value, flag)
    if not out:
        raise UsageError(f"{flag} is empty")
    return out


def _parse_ranges(items: Sequence[str]) -> dict[str, analysis.Axis]:
    from . import analysis

    out: dict[str, analysis.Axis] = {}
    for item in items:
        for chunk in item.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, eq, rest = chunk.partition("=")
            parts = rest.split(":")
            if not eq or len(parts) != 3:
                raise UsageError(f"--range expects VAR=start:stop:count, got {chunk!r}")
            try:
                start, stop = float(parts[0]), float(parts[1])
                count = int(parts[2])
            except ValueError:
                raise UsageError(f"--range {chunk!r}: malformed numbers") from None
            try:
                out[name.strip()] = analysis.Axis(start, stop, count)
            except ValueError as exc:
                raise UsageError(f"--range {chunk!r}: {exc}") from None
            # Axis checks both ends where count > 1; a one-point axis is its start alone
            _number(parts[0], f"--range {chunk!r} start")
    return out


def _parse_pins(items: Sequence[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        out.update(_parse_assignments(item, "--pin"))
    return out


def resolve_field(name: str, params: dict[str, float], kind: MetricKind):
    """Turn a --system value into a metric field: the source, then `params`, then `kind`."""
    path = Path(name)
    if name in fundeq.BUILTIN_NAMES:
        source = fundeq.builtin(name)
    elif name in geometry.CLOSED_FORM_NAMES:
        source = geometry.closed_form_metric(name)
    elif path.exists():
        sections = fundeq._read_sections(path)
        if sections.has_section("metric") and sections.has_section("system"):
            raise UsageError(f"{name} has both a [system] and a [metric] section; give one")
        if sections.has_section("metric"):
            source = geometry.load_metric_file(path)
        else:
            source = fundeq.load_system_file(path)
    else:
        raise UsageError(
            f"unknown system {name!r}: not a built-in "
            f"({', '.join(fundeq.BUILTIN_NAMES)}), not a closed-form metric "
            f"({', '.join(geometry.CLOSED_FORM_NAMES)}), and no such file"
        )
    if params:
        source = source.with_parameters(**params)
    if isinstance(source, geometry.DirectMetricField):
        if kind is not MetricKind.NATURAL:
            raise UsageError(f"{name} is a direct metric; --metric-kind does not apply")
        return source
    return HessianMetricField(source, kind)


def _report_skeleton(args, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": getattr(args, "system", None),
        "parameters": getattr(args, "_params", {}),
        "command": command,
        "grid": None,
        "quantity": getattr(args, "quantity", None),
        "values": None,
        "singular_points": None,
        "fits": None,
        "residuals": None,
    }


def _strict(value):
    """`value` as strict JSON data: a NaN is null, +-inf the CSV tokens "inf" and "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _rows_text(table: np.ndarray) -> str:
    """The rows of `table` as a strict JSON list, one row a line.

    Only the rows `np.isfinite` flags are rewritten, so a finite table costs
    one `tolist()`. Line breaks go only between rows, whose elements are
    numbers, null and "inf"/"-inf", never into text that can hold a user string.
    """
    import json

    rows = table.tolist()
    for i in np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist():
        rows[i] = _strict(rows[i])
    text = json.dumps(rows, allow_nan=False)
    return "[\n" + text[1:-1].replace("], [", "],\n[") + "\n]"


def _json_text(report: dict) -> str:
    """`report` as strict JSON, one top-level key a line; every part is one C-encoder call.

    A scan's `values` holds its rows as an array, written by `_rows_text`.
    """
    import json

    lines = []
    for key, value in report.items():
        if isinstance(value, dict) and isinstance(value.get("rows"), np.ndarray):
            text = "{%s}" % ", ".join(
                f"{json.dumps(k)}: {_rows_text(v) if k == 'rows' else json.dumps(v)}"
                for k, v in value.items()
            )
        else:
            text = json.dumps(_strict(value), allow_nan=False)
        lines.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """`header`, then `rows`: a text cell as it is, a number at 17 significant digits.

    The body is one `%` template over the whole table, with each column's
    format read off the first row; `%.17g` writes the bytes `fmt` writes, nan
    and +-inf included.
    """
    cells = ["%s" if isinstance(x, str) else "%.17g" for x in rows[0]]
    body = ((",".join(cells) + "\n") * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + body


def _emit(args, report: dict, csv_header: Sequence[str], csv_rows) -> None:
    """Write the report file, if asked for: `report` as JSON, or the CSV rows."""
    if args.output is None:
        return
    if args.format == "csv":
        text = _csv_text(csv_header, csv_rows)
    else:
        text = _json_text(report)
    try:
        with open(args.output, "w", newline="\n") as stream:
            stream.write(text)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


# -- systems -----------------------------------------------------------------------


def cmd_systems(args) -> int:
    print("built-in systems:")
    for name in fundeq.BUILTIN_NAMES:
        spec = fundeq.builtin(name)
        head = ", ".join(spec.variables)
        if spec.parameters:
            head += "; " + ", ".join(spec.parameters)
            defaults = ", ".join(f"{k}={v:g}" for k, v in spec.parameters.items())
            print(f"  {name} ({head})  [defaults: {defaults}]")
        else:
            print(f"  {name} ({head})")
    print("closed-form metrics:")
    for name in geometry.CLOSED_FORM_NAMES:
        f = geometry.closed_form_metric(name)
        print(f"  {name} ({', '.join(f.coordinates)})")
    return EXIT_OK


# -- eval --------------------------------------------------------------------------


def cmd_eval(args) -> int:
    params = args._params
    f = resolve_field(args.system, params, MetricKind(args.metric_kind))
    point_map = _parse_assignments(args.point, "--point")
    missing = [c for c in f.coordinates if c not in point_map]
    if missing:
        raise UsageError(f"--point is missing coordinates {missing}")
    unknown = set(point_map) - set(f.coordinates)
    if unknown:
        raise UsageError(f"--point names unknown coordinates {sorted(unknown)}")
    point = [point_map[c] for c in f.coordinates]

    want = args.quantity
    has_spec = isinstance(f, HessianMetricField)
    if want in ("potential", "intensive") and not has_spec:
        raise UsageError(f"{want!r} requires a fundamental-equation system")
    values: dict = {"point": dict(zip(f.coordinates, point))}
    # each source is evaluated once: the potential and its gradient from one
    # jet, and g, det g and R from one curvature call
    if want in ("potential", "intensive") or (want == "all" and has_spec):
        phi = fundeq.evaluate(f.spec, point, order=0 if want == "potential" else 1)
        if want != "intensive":
            values["potential"] = phi.value
        if want != "potential":
            values["intensive"] = {f"I_{v}": float(x) for v, x in zip(f.spec.variables, phi.gradient)}
    if want in ("metric", "detg"):
        # not through the curvature, which calls a zero det g degenerate
        metric = geometry.metric_at(f, point)
        if want == "metric":
            values["metric"] = metric.components.tolist()
        values["det_g"] = metric.det_g
    if want in ("curvature", "all"):
        curvature = geometry.scalar_curvature(f, point)
        if want == "all":
            values["metric"] = curvature.metric.tolist()
        values["det_g"] = curvature.det_g
        values["curvature"] = curvature.scalar

    # one flat list of (name, value) feeds the stdout lines and the CSV row
    flat: list[tuple[str, float]] = []
    coords = f.coordinates
    for key, val in values.items():
        if key == "intensive":
            flat += val.items()
        elif key == "metric":
            flat += [(f"g_{a}_{b}", x) for a, row in zip(coords, val) for b, x in zip(coords, row)]
        elif key != "point":
            flat.append((key, val))
    for name, x in flat:
        print(f"{name} = {fmt(x)}")

    report = _report_skeleton(args, "eval")
    report["values"] = values
    header = [*coords, *("R" if name == "curvature" else name for name, _ in flat), "status"]
    _emit(args, report, header, [[*point, *(x for _, x in flat), geometry.STATUS_OK]])
    return EXIT_OK


# -- scan --------------------------------------------------------------------------


def cmd_scan(args) -> int:
    from . import analysis

    f = resolve_field(args.system, args._params, MetricKind(args.metric_kind))
    ranges = _parse_ranges(args.range or [])
    pins = _parse_pins(args.pin or [])
    overlap = set(ranges) & set(pins)
    if overlap:
        raise UsageError(f"coordinates both ranged and pinned: {sorted(overlap)}")
    try:
        grid = analysis.GridSpec.build(f.coordinates, {**ranges, **pins})
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    report_data = analysis.grid_scan(f, grid, args.quantity)
    roots = analysis.find_singular_locus(f, grid, det_g=report_data.det_g)
    fits = []
    if args.fit_center:
        center_map = _parse_assignments(args.fit_center, "--fit-center")
        direction_map = _parse_assignments(args.fit_direction or "", "--fit-direction")
        for c in f.coordinates:
            if c not in center_map:
                raise UsageError(f"--fit-center is missing coordinate {c!r}")
        center = [center_map[c] for c in f.coordinates]
        direction = [direction_map.get(c, 0.0) for c in f.coordinates]
        base, count, factor = _parse_offsets(args.fit_offsets)
        fits.append(
            analysis.fit_divergence_exponent(
                f, center, direction, analysis.geometric_offsets(base, count, factor)
            )
        )

    n_ok = report_data.status.count(analysis.STATUS_OK)
    print(f"scanned {grid.size} points ({n_ok} ok, {grid.size - n_ok} marked)")
    # one template for every root's numbers; %.17g writes the bytes fmt writes
    line = ", ".join(f"{name.replace('%', '%%')}=%.17g" for name in grid.names) + "  det_g = %.17g"
    for root in roots:
        numbers = (*root.coords.values(), root.det_g)
        if root.category == "pole":
            print("pole: " + line % numbers)
            continue
        cat = f" [{root.category}]" if root.category else ""
        print("root: " + line % numbers + cat)
    for fit in fits:
        if fit.diverges:
            print(f"divergence exponent: {fit.exponent:.4f} (correlation {fit.correlation:.6f})")
        elif fit.samples:
            print("no divergence detected (the value is the same at every kept sample)")
        else:
            print("no divergence detected (values below noise floor)")

    report = _report_skeleton(args, "scan")
    report["grid"] = grid.describe()
    # rows stay an array until a JSON report is encoded
    report["values"] = {
        "columns": list(report_data.columns),
        "rows": report_data.values,
        "status": report_data.status,
    }
    # a record's fields are its report keys, in declaration order
    report["singular_points"] = [vars(root) for root in roots]
    report["fits"] = [vars(fit) for fit in fits]

    header = list(grid.names) + list(report_data.columns) + ["status"]
    rows = None
    if args.format == "csv":
        # each axis value is formatted once, and each row's coordinates are one
        # text cell, joined once; the values go column by column
        axes = ([fmt(x) for x in v.tolist()] for v in grid.axis_values())
        keys = map(",".join, itertools.product(*axes))
        rows = list(zip(keys, *report_data.values.T.tolist(), report_data.status))
    _emit(args, report, header, rows)
    return EXIT_OK


def _parse_offsets(text: str) -> tuple[float, int, float]:
    parts = (text or "").split(":")
    if len(parts) not in (2, 3):
        raise UsageError("--fit-offsets expects BASE:COUNT[:FACTOR]")
    try:
        count = int(parts[1])
    except ValueError:
        raise UsageError(f"--fit-offsets {text!r}: malformed numbers") from None
    base = _number(parts[0], "--fit-offsets BASE")
    factor = _number(parts[2], "--fit-offsets FACTOR") if len(parts) == 3 else 0.5
    if base <= 0 or count < 4 or not 0 < factor < 1:
        raise UsageError("--fit-offsets needs BASE > 0, COUNT >= 4, 0 < FACTOR < 1")
    return base, count, factor


# -- check -------------------------------------------------------------------------


def _sample_box(spec, args, rng) -> np.ndarray:
    if args.box:
        box = {}
        for chunk in args.box.split(","):
            name, eq, rest = chunk.partition("=")
            lo, colon, hi = rest.partition(":")
            if not eq or not colon:
                raise UsageError(f"--box expects VAR=lo:hi items, got {chunk!r}")
            lo, hi = float(lo), float(hi)
            # rng.uniform needs hi - lo finite
            if not (lo < hi and math.isfinite(hi - lo)):
                raise UsageError(f"--box {chunk!r}: needs finite lo < hi a finite distance apart")
            box[name.strip()] = (lo, hi)
    else:
        box = _CHECK_BOXES.get(spec.name)
        if box is None:
            raise UsageError(f"no default sampling box for {spec.name!r}; pass --box VAR=lo:hi,...")
    missing = [v for v in spec.variables if v not in box]
    if missing:
        raise UsageError(f"--box is missing variables {missing}")
    return np.array([rng.uniform(*box[v]) for v in spec.variables])


def _require_system(args) -> "fundeq.SystemSpec":
    if not args.system:
        raise UsageError("this check requires --system")
    f = resolve_field(args.system, args._params, MetricKind.NATURAL)
    if not isinstance(f, HessianMetricField):
        raise UsageError("this check requires a fundamental-equation system")
    return f.spec


def _parse_transform(text: str, n: int) -> phase_space.LegendreMap:
    from . import phase_space

    if text == "identity":
        return phase_space.LegendreMap.identity(n)
    if text == "total":
        return phase_space.LegendreMap.total(n)
    if text.startswith("subset="):
        try:
            indices = [int(tok) - 1 for tok in text[len("subset=") :].split("+")]
        except ValueError:
            raise UsageError(f"--transform {text!r}: subset must be 1-based indices") from None
        if any(not 0 <= i < n for i in indices):
            raise UsageError(f"--transform subset indices must be in 1..{n}")
        return phase_space.LegendreMap.partial(n, indices)
    raise UsageError(f"--transform must be identity, total, or subset=i[+j...], got {text!r}")


def cmd_check(args) -> int:
    from . import phase_space

    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    tol = _number(args.tol, "--tol") if args.tol is not None else DEFAULT_TOLERANCES[args.identity]
    if tol < 0:
        raise UsageError(f"--tol: {args.tol!r} is negative, so no check could pass")
    residuals: list[float] = []

    if args.identity == "legendre":
        lmap = _parse_transform(args.transform, args.n)
        for _ in range(args.trials):
            point = phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * args.n + 1))
            residuals.append(phase_space.legendre_invariance_residual(lmap, point))
    elif args.identity == "contact":
        expected = phase_space.contact_volume_expected(args.n)
        for _ in range(args.trials):
            point = phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * args.n + 1))
            coeff = phase_space.contact_volume_coefficient(point, args.n)
            residuals.append(abs(coeff - expected))
    elif args.identity == "first-law":
        spec = _require_system(args)
        for _ in range(args.trials):
            point = _sample_box(spec, args, rng)
            direction = _unit_direction(rng, spec.dim)
            residuals.append(abs(phase_space.theta_residual(spec, point, direction)))
    elif args.identity in ("euler", "gibbs-duhem"):
        spec = _require_system(args)
        weights = tuple(_number(w, "--weights") for w in args.weights.split(",")) if args.weights else None
        beta = _number(args.beta, "--beta") if args.beta is not None else None
        for _ in range(args.trials):
            point = _sample_box(spec, args, rng)
            if args.identity == "euler":
                raw = phase_space.euler_residual(spec, point, weights, beta)
            else:
                direction = _unit_direction(rng, spec.dim)
                raw = phase_space.gibbs_duhem_residual(spec, point, direction, weights, beta)
            residuals.append(abs(raw))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown check {args.identity!r}")

    residuals = [float(r) for r in residuals]
    worst = max(residuals)
    passed = bool(worst <= tol)
    print(f"check {args.identity}: max residual {fmt(worst)} over {len(residuals)} trials")
    print(f"tolerance {fmt(tol)}: {'PASS' if passed else 'FAIL'}")

    report = _report_skeleton(args, "check")
    report["quantity"] = args.identity
    report["residuals"] = {
        "max": worst,
        "tolerance": tol,
        "trials": len(residuals),
        "pass": passed,
        "values": residuals,
    }
    _emit(args, report, ["trial", "residual"], list(enumerate(residuals)))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _unit_direction(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else np.ones(n) / math.sqrt(n)


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtdkit",
        description="Legendre-invariant thermodynamic geometry: metrics, curvature, scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list built-in systems and closed-form metrics")

    def add_common(p):
        p.add_argument("--system", required=True, help="built-in name, closed-form name, or file")
        p.add_argument("--params", default=None, help="parameter overrides, name=value,...")
        p.add_argument(
            "--metric-kind",
            default="natural",
            choices=[k.value for k in MetricKind if k is not MetricKind.DIRECT],
            help="metric construction for fundamental-equation systems",
        )
        p.add_argument("--output", default=None, help="write a report file")
        p.add_argument("--format", default="json", choices=["csv", "json"], help="report format")

    p_eval = sub.add_parser(
        "eval",
        help="evaluate quantities at a point",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_common(p_eval)
    p_eval.add_argument("--point", required=True, help="coordinates, VAR=value,...")
    p_eval.add_argument(
        "--quantity",
        default="all",
        choices=["potential", "intensive", "metric", "detg", "curvature", "all"],
    )

    p_scan = sub.add_parser(
        "scan",
        help="scan a grid; find det-g roots; optional divergence fit",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_common(p_scan)
    p_scan.add_argument(
        "--range", action="append", help="VAR=start:stop:count (repeatable, comma-separable)"
    )
    p_scan.add_argument("--pin", action="append", help="VAR=value (repeatable)")
    p_scan.add_argument("--quantity", default="curvature", choices=list(geometry.QUANTITIES))
    p_scan.add_argument("--fit-center", default=None, help="divergence fit center, VAR=value,...")
    p_scan.add_argument("--fit-direction", default=None, help="approach direction, VAR=value,...")
    p_scan.add_argument("--fit-offsets", default="0.1:10", help="BASE:COUNT[:FACTOR]")

    p_check = sub.add_parser(
        "check",
        help="run an identity check and report residuals",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_check.add_argument("identity", choices=list(CHECKS))
    p_check.add_argument("--system", default=None, help="system for system-bound checks")
    p_check.add_argument("--params", default=None)
    p_check.add_argument("--n", type=int, default=2, help="degrees of freedom for phase-space checks")
    p_check.add_argument("--transform", default="total", help="identity, total, or subset=i[+j...]")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=20260810)
    tol_text = ", ".join(f"{k} {v:g}" for k, v in sorted(DEFAULT_TOLERANCES.items()))
    p_check.add_argument("--tol", default=None, help=f"tolerance override (defaults: {tol_text})")
    p_check.add_argument("--weights", default=None, help="comma-separated weights")
    p_check.add_argument("--beta", default=None, help="homogeneity degree")
    p_check.add_argument("--box", default=None, help="sampling box, VAR=lo:hi,...")
    p_check.add_argument("--output", default=None)
    p_check.add_argument("--format", default="json", choices=["csv", "json"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._params = _parse_assignments(args.params, "--params") if getattr(args, "params", None) else {}
        command = {"systems": cmd_systems, "eval": cmd_eval, "scan": cmd_scan}.get(args.command, cmd_check)
        # a non-finite result is reported through statuses and exit codes, not numpy warnings
        with np.errstate(all="ignore"):
            return command(args)
    except _IOFailure as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    # every other GtdError (ParseError, DomainError) is the user's input
    except (UsageError, ValueError, GtdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
