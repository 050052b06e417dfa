"""Command-line interface.

Subcommands::

    gtdkit systems                         list built-in systems and metrics
    gtdkit eval  --system vdw --point S=1,V=2 [--quantity curvature]
    gtdkit scan  --system rn_closed --range S=0.5:10:500 --pin Q=1 --quantity detg
    gtdkit check legendre --n 2 --transform total --trials 100

`--system` accepts a built-in system name, a closed-form metric name, or a
path to a definition file ([system] or [metric] sections). Every NAME=VALUE
flag reads comma-separated items (`--range VAR=start:stop:count`, inclusive;
`--box VAR=lo:hi`; a number elsewhere), each NAME a coordinate (a parameter
for `--params`), and every number of a flag or a definition file is finite.
`scan` and `check` read each flag they use once, before they evaluate a point.

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
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

# each command imports what only it needs: `scan` analysis, `check` phase_space,
# a JSON report json, so an eval loads none of them
from . import fundeq, geometry, jets
from .errors import DegenerateMetricError, GtdError
from .fundeq import finite_number
from .geometry import HessianMetricField, MetricKind

if TYPE_CHECKING:
    from . import analysis, phase_space

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

_FIT_OFFSETS = "0.1:10"  # the samples of a divergence fit given no --fit-offsets
MAX_TRIALS = 10**6  # the most trials a check runs

DEFAULT_TOLERANCES = {
    "legendre": 1e-9,
    "euler": 1e-10,
    "gibbs-duhem": 1e-10,
    "contact": 1e-12,
    "first-law": 1e-12,
}
CHECKS = tuple(sorted(DEFAULT_TOLERANCES))
# the flags of a system-bound identity, in parser order; one that an identity
# does not read exits 2 when given, rather than pass unread
_SYSTEM_FLAGS = ("system", "params", "weights", "beta", "box")
_UNREAD_FLAGS = {"legendre": _SYSTEM_FLAGS, "contact": _SYSTEM_FLAGS, "first-law": ("weights", "beta")}

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


def _items(texts: str | Sequence[str] | None, flag: str, parse: Callable[[str, str], object]) -> dict:
    """The NAME=VALUE items of a flag's value, or of a repeatable flag's values, comma-separated.

    Each VALUE is read by `parse(VALUE, flag)`, and a later NAME replaces an
    earlier one. A flag not given (None) has no items, a given one at least one.
    """
    if texts is None:
        return {}
    out = {}
    for text in [texts] if isinstance(texts, str) else texts:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, eq, value = chunk.partition("=")
            if not eq:
                raise UsageError(f"{flag} expects NAME=VALUE items, got {chunk!r}")
            out[name.strip()] = parse(value, flag)
    if not out:
        raise UsageError(f"{flag} is empty")
    return out


def _vector(values: dict, coords: Sequence[str], flag: str, default=None) -> list:
    """`values` in the order of `coords`: each name a coordinate, each coordinate named or `default`."""
    missing = [c for c in coords if c not in values]
    if missing and default is None:
        raise UsageError(f"{flag} is missing coordinates {missing}")
    unknown = set(values) - set(coords)
    if unknown:
        raise UsageError(f"{flag} names unknown coordinates {sorted(unknown)}")
    return [values.get(c, default) for c in coords]


def _axis(text: str, flag: str) -> analysis.Axis:
    """`start:stop:count` as an Axis."""
    from . import analysis

    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects VAR=start:stop:count, got {text!r}")
    try:
        axis = analysis.Axis(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r}: {exc}") from None
    # Axis checks both ends where count > 1; a one-point axis is its start alone
    finite_number(parts[0], f"{flag} start")
    return axis


def _interval(text: str, flag: str) -> tuple[float, float]:
    """`lo:hi` as the bounds of a uniform draw, which needs hi - lo finite."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise UsageError(f"{flag} expects VAR=lo:hi items, got {text!r}") from None
    if not (lo < hi and math.isfinite(hi - lo)):
        raise UsageError(f"{flag} {text!r}: needs finite lo < hi a finite distance apart")
    return lo, hi


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
        load = geometry.load_metric_file if sections.has_section("metric") else fundeq.load_system_file
        source = load(path, sections)
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
    f = resolve_field(args.system, args._params, MetricKind(args.metric_kind))
    point = _vector(_items(args.point, "--point", finite_number), f.coordinates, "--point")

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
    ranges = _items(args.range, "--range", _axis)
    pins = _items(args.pin, "--pin", finite_number)
    overlap = set(ranges) & set(pins)
    if overlap:
        raise UsageError(f"coordinates both ranged and pinned: {sorted(overlap)}")
    grid = analysis.GridSpec.build(f.coordinates, {**ranges, **pins})
    # every flag is read before the first evaluation, so a bad one costs no scan
    fit = None
    flags = {"--fit-center": args.fit_center, "--fit-direction": args.fit_direction}
    missing = [flag for flag, text in flags.items() if text is None]
    if missing and (len(missing) == 1 or args.fit_offsets is not None):
        raise UsageError(f"a divergence fit needs {' and '.join(missing)}")
    if not missing:
        center = _items(args.fit_center, "--fit-center", finite_number)
        direction = _items(args.fit_direction, "--fit-direction", finite_number)
        fit = (
            _vector(center, f.coordinates, "--fit-center"),
            _vector(direction, f.coordinates, "--fit-direction", default=0.0),
            analysis.geometric_offsets(*_parse_offsets(args.fit_offsets)),
        )
        analysis.fit_points(*fit)  # a zero direction or coinciding samples

    report_data = analysis.grid_scan(f, grid, args.quantity)
    roots = analysis.find_singular_locus(f, grid, det_g=report_data.det_g)
    fits = [analysis.fit_divergence_exponent(f, *fit)] if fit else []

    n_ok = report_data.status.count(analysis.STATUS_OK)
    print(f"scanned {grid.size} points ({n_ok} ok, {grid.size - n_ok} marked)")
    # one template for every root's numbers (an identifier holds no %); %.17g writes fmt's bytes
    line = ", ".join(f"{name}=%.17g" for name in grid.names) + "  det_g = %.17g"
    lines = [
        ("pole: " if root.category == "pole" else "root: ")
        + line % (*root.coords.values(), root.det_g)
        + (f" [{root.category}]" if root.category not in (None, "pole") else "")
        for root in roots
    ]
    if lines:  # one write for all of them, not one a root
        print("\n".join(lines))
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


def _parse_offsets(text: str | None) -> tuple[float, int, float]:
    from .analysis import GRID_CAP

    parts = (_FIT_OFFSETS if text is None else text).split(":")
    if len(parts) not in (2, 3):
        raise UsageError("--fit-offsets expects BASE:COUNT[:FACTOR]")
    try:
        count = int(parts[1])
    except ValueError:
        raise UsageError(f"--fit-offsets {text!r}: malformed numbers") from None
    base = finite_number(parts[0], "--fit-offsets BASE")
    factor = finite_number(parts[2], "--fit-offsets FACTOR") if len(parts) == 3 else 0.5
    if base <= 0 or not 4 <= count <= GRID_CAP or not 0 < factor < 1:
        raise UsageError(f"--fit-offsets needs BASE > 0, 4 <= COUNT <= {GRID_CAP}, 0 < FACTOR < 1")
    return base, count, factor


# -- check -------------------------------------------------------------------------


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


def _trial(args, rng) -> Callable[[], float]:
    """A function that draws one sample of `args.identity` from `rng` and returns its residual.

    Every flag the identity uses is read here, once: `--transform`; or
    `--system` and `--params`, `--weights` and `--beta`, then `--box`. A flag
    it does not read (`_UNREAD_FLAGS`) is a UsageError. A trial draws a phase
    point, or a box point (one uniform per variable, in the spec's order) and
    then a unit direction.
    """
    from . import phase_space

    unread = _UNREAD_FLAGS.get(args.identity, ())
    given = [f"--{flag}" for flag in unread if getattr(args, flag) is not None]
    if given:
        raise UsageError(f"check {args.identity} does not read {', '.join(given)}")

    def phase_point():
        return phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * args.n + 1))

    if args.identity == "legendre":
        lmap = _parse_transform(args.transform, args.n)
        return lambda: phase_space.legendre_invariance_residual(lmap, phase_point())
    if args.identity == "contact":
        expected = phase_space.contact_volume_expected(args.n)
        return lambda: phase_space.contact_volume_coefficient(phase_point()) - expected
    if not args.system:
        raise UsageError("this check requires --system")
    f = resolve_field(args.system, args._params, MetricKind.NATURAL)
    if not isinstance(f, HessianMetricField):
        raise UsageError("this check requires a fundamental-equation system")
    spec = f.spec
    weights = None
    if args.weights:
        weights = tuple(finite_number(w, "--weights") for w in args.weights.split(","))
    beta = None if args.beta is None else finite_number(args.beta, "--beta")
    box = _items(args.box, "--box", _interval) or _CHECK_BOXES.get(spec.name)
    if box is None:
        raise UsageError(f"no default sampling box for {spec.name!r}; pass --box VAR=lo:hi,...")
    lo, hi = np.transpose(_vector(box, spec.variables, "--box"))

    def direction():
        v = rng.normal(size=spec.dim)
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0 else np.ones(spec.dim) / math.sqrt(spec.dim)

    if args.identity == "euler":
        return lambda: phase_space.euler_residual(spec, rng.uniform(lo, hi), weights, beta)
    if args.identity == "first-law":
        return lambda: phase_space.theta_residual(spec, rng.uniform(lo, hi), direction())
    return lambda: phase_space.gibbs_duhem_residual(
        spec, rng.uniform(lo, hi), direction(), weights, beta
    )


def cmd_check(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}")
    # a phase space with no pairs has nothing to compare, so it would pass any check
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.n > jets.MAX_VARS:
        raise UsageError(f"--n must be at most {jets.MAX_VARS}, the most variables a system can have")
    tol = finite_number(args.tol, "--tol") if args.tol is not None else DEFAULT_TOLERANCES[args.identity]
    if tol < 0:
        raise UsageError(f"--tol: {args.tol!r} is negative, so no check could pass")
    trial = _trial(args, np.random.default_rng(args.seed))
    residuals = [abs(float(trial())) for _ in range(args.trials)]
    worst = float(np.max(residuals))  # NaN if any trial is: a trial that is not a number fails
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
            choices=[k.value for k in MetricKind],
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
    p_scan.add_argument("--fit-offsets", help=f"BASE:COUNT[:FACTOR], {_FIT_OFFSETS} if not given")

    p_check = sub.add_parser(
        "check",
        help="run an identity check and report residuals",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_check.add_argument("identity", choices=list(CHECKS))
    p_check.add_argument("--system", default=None, help="system for system-bound checks")
    p_check.add_argument("--params", default=None)
    p_check.add_argument(
        "--n", type=int, default=2, help=f"phase-space pairs: 1..{jets.MAX_VARS}, or 1..3 for contact"
    )
    p_check.add_argument("--transform", default="total", help="identity, total, or subset=i[+j...]")
    p_check.add_argument("--trials", type=int, default=100, help=f"random trials, 1..{MAX_TRIALS}")
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
        args._params = _items(getattr(args, "params", None), "--params", finite_number)
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
