"""Command-line surface: distances, bounds, diagram files and checks.

Commands
    dist         distance between two slopes (optionally in the even graph)
    lens-bounds  twisted/untwisted summand bounds for one lens space
    build        construct a diagram JSON file from a lens space or path file
    table        CSV of bounds for all lens spaces up to a given p
    render       schematic SVG of a genus-1 diagram JSON
    verify       recompute and cross-check a diagram JSON

Exit codes: 0 success, 1 input error, 2 verification failure, 3 search
gave up (cap/budget exhausted; the best known upper bound is printed).
All output is deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import construct, forms, lens as lens_mod
from .evenfarey import even_distance
from .farey import (
    DomainError,
    InvalidSlopeError,
    NoPathWithinCap,
    Slope,
    default_cap,
    farey_distance,
)

_JSON_INT_LIMIT = 2**53 - 1

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_VERIFY = 2
_EXIT_EXHAUSTED = 3


def _pack_int(n: int):
    """Ints beyond the float53 range travel as decimal strings."""
    return n if -_JSON_INT_LIMIT <= n <= _JSON_INT_LIMIT else str(n)


def _unpack_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"expected an integer field, got {v!r}")
    return int(v)


def _expect(v, kind: type, what: str):
    """`v` if it is a JSON object (kind dict) or list, else a ValueError."""
    if not isinstance(v, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"expected {what} to be {name}, got {type(v).__name__}")
    return v


_CONTAINERS = frozenset((dict, list))


def _same(a, b) -> bool:
    """JSON equality that tells true from 1 and 1 from 1.0, which == does not.

    A list compares its element types first, so a list of scalars such as
    a linking matrix row needs no Python call per entry.
    """
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        kinds = list(map(type, a))
        if kinds != list(map(type, b)):
            return False
        if not _CONTAINERS.isdisjoint(kinds):
            return all(map(_same, a, b))
    return a == b


def _matrix_difference(got, want: list) -> str | None:
    """Where the file's linking matrix first differs from `want`, else None.

    Names the row count, a row's length or the first differing entry in
    row-major order, with the file's and the recomputed value.
    """
    if _same(got, want):
        return None
    if type(got) is not list:
        return f"linking matrix: file says {json.dumps(got)}, recomputed a list of {len(want)} rows"
    if len(got) != len(want):
        return f"linking matrix: file has {len(got)} rows, recomputed {len(want)}"
    for i, (row, expected) in enumerate(zip(got, want)):
        if type(row) is not list or len(row) != len(expected):
            return (
                f"linking matrix row {i}: file says {json.dumps(row)}, "
                f"recomputed {len(expected)} entries"
            )
        for j, (x, y) in enumerate(zip(row, expected)):
            if not _same(x, y):
                return (
                    f"linking matrix entry ({i}, {j}): file says {json.dumps(x)}, "
                    f"recomputed {json.dumps(y)}"
                )
    return None


def _slope_doc(s: Slope) -> dict:
    return {"p": _pack_int(s.p), "q": _pack_int(s.q)}


def _slope_from_doc(doc) -> Slope:
    doc = _expect(doc, dict, "a slope")
    return Slope(_unpack_int(doc["p"]), _unpack_int(doc["q"]))


def _path_doc(path: construct.DualPath) -> dict:
    return {
        "mode": path.mode.value,
        "systems": [[_slope_doc(s) for s in sys_] for sys_ in path.systems],
    }


def _path_from_doc(doc) -> construct.DualPath:
    doc = _expect(doc, dict, "the walk")
    mode = construct.PathMode(doc["mode"])
    systems = tuple(
        tuple(_slope_from_doc(s) for s in _expect(sys_, list, "a curve system"))
        for sys_ in _expect(doc["systems"], list, '"systems"')
    )
    return construct.DualPath(systems, mode)


_DIAGRAM_VERSION = 1


def _diagram_doc(
    diagram: construct.TrisectionDiagram,
    link: construct.FramedLink,
    csum: construct.ConnectSum,
    stats: construct.DiagramStats,
) -> dict:
    return {
        "version": _DIAGRAM_VERSION,
        "genus_per_copy": diagram.genus_per_copy,
        "num_copies": diagram.num_copies,
        "path": _path_doc(diagram.path),
        "blue": [
            {
                "copy": c.copy,
                "coordinate": c.coordinate,
                "slope": _slope_doc(c.slope),
                "reflected": c.reflected,
            }
            for c in diagram.blue
        ],
        "red": [
            {"kind": c.kind, "location": c.location, "coordinate": c.coordinate}
            for c in diagram.red
        ],
        "green": [
            {"kind": c.kind, "location": c.location, "coordinate": c.coordinate}
            for c in diagram.green
        ],
        "kirby": {
            "curves": [
                {
                    "layer": c.layer,
                    "coordinate": c.coordinate,
                    "slope": _slope_doc(c.slope),
                    "framing": _pack_int(c.framing),
                }
                for c in link.curves
            ],
            "linking_matrix": [
                [_pack_int(x) for x in row] for row in link.linking_matrix
            ],
        },
        "classification": {
            "raw_untwisted": csum.raw_untwisted,
            "raw_twisted": csum.raw_twisted,
            "normal_form": csum.normal_form,
        },
        "stats": {
            "total_genus": stats.total_genus,
            "ball_count": stats.ball_count,
            "minimal": stats.minimal,
        },
    }


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _bound_doc(result: lens_mod.BoundResult) -> dict:
    return {
        "n": result.n,
        "path": [str(v) for v in result.path.vertices],
        "representative": {"p": result.representative.p, "q": result.representative.q},
        "exactness": result.exactness.value,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; keep 2 for verify failures
        self.print_usage(sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinebound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two slopes")
    p_dist.add_argument("a", help="slope, e.g. 0/1")
    p_dist.add_argument("b", help="slope, e.g. 7/2")
    p_dist.add_argument("--even", action="store_true", help="restrict to the even graph")
    p_dist.add_argument("--cap", type=int, default=None, help="coordinate cap for the search")
    p_dist.set_defaults(func=cmd_dist)

    p_lb = sub.add_parser("lens-bounds", help="summand bounds for L(p, q)")
    p_lb.add_argument("p", type=int)
    p_lb.add_argument("q", type=int)
    p_lb.add_argument("--cap", type=int, default=None)
    p_lb.set_defaults(func=cmd_lens_bounds)

    p_build = sub.add_parser("build", help="build a diagram JSON file")
    p_build.add_argument("p", type=int, nargs="?")
    p_build.add_argument("q", type=int, nargs="?")
    p_build.add_argument("--path-file", default=None, help="JSON walk instead of a lens space")
    p_build.add_argument("--mode", choices=("any", "even"), default="any")
    p_build.add_argument("--cap", type=int, default=None)
    p_build.add_argument("--out", default="diagram.json")
    p_build.set_defaults(func=cmd_build)

    p_table = sub.add_parser("table", help="CSV of bounds for all p <= pmax")
    p_table.add_argument("--pmax", type=int, required=True)
    p_table.add_argument("--cap", type=int, default=None)
    p_table.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_table.set_defaults(func=cmd_table)

    p_render = sub.add_parser("render", help="render a genus-1 diagram JSON as SVG")
    p_render.add_argument("input", help="diagram JSON path")
    p_render.add_argument("output", help="SVG path")
    p_render.set_defaults(func=cmd_render)

    p_verify = sub.add_parser("verify", help="recompute and check a diagram JSON")
    p_verify.add_argument("input", help="diagram JSON path")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def cmd_dist(args) -> int:
    try:
        a = Slope.parse(args.a)
        b = Slope.parse(args.b)
    except InvalidSlopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    cap = args.cap if args.cap is not None else default_cap(a, b)
    search = even_distance if args.even else farey_distance
    try:
        d, path = search(a, b, cap)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except NoPathWithinCap as exc:
        print(f"no path within cap {cap}; upper bound {exc.upper_bound} : {exc.path}")
        return _EXIT_EXHAUSTED
    if d == 0:
        print("0")
    else:
        print(f"{d} : {path}")
    print(f"exactness: {'exact' if d <= 2 else 'exact-within-cap'}")
    return _EXIT_OK


def cmd_lens_bounds(args) -> int:
    try:
        lens = lens_mod.normalize(args.p, args.q)
        reps = sorted(lens_mod.equivalent_reps(lens), key=lambda r: r.q)
        doc = {
            "p": lens.p,
            "q": lens.q,
            "reps": [{"p": r.p, "q": r.q} for r in reps],
            "twisted": _bound_doc(lens_mod.twisted_bound(lens, args.cap)),
            "untwisted": _bound_doc(lens_mod.untwisted_bound(lens, args.cap)),
        }
    except ValueError as exc:  # invalid lens space, or a cap below its complexity
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    sys.stdout.write(_dump_json(doc))
    return _EXIT_OK


def _load_path_file(path_file: str) -> construct.DualPath:
    doc = json.loads(Path(path_file).read_text())
    return _path_from_doc(doc)


def cmd_build(args) -> int:
    if args.path_file is not None:
        try:
            path = _load_path_file(args.path_file)
        except (OSError, ValueError, KeyError, InvalidSlopeError) as exc:
            print(f"error: cannot read walk: {exc}", file=sys.stderr)
            return _EXIT_INPUT
        violations = construct.validate_path(path)
        if violations:
            for v in violations:
                print(f"invalid walk: {v}", file=sys.stderr)
            return _EXIT_INPUT
    else:
        if args.p is None or args.q is None:
            print("error: give p q or --path-file", file=sys.stderr)
            return _EXIT_INPUT
        try:
            lens = lens_mod.normalize(args.p, args.q)
            path = construct.path_from_lens(lens, args.mode, args.cap)
        except ValueError as exc:  # invalid lens space, or a cap below its complexity
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_INPUT
    diagram = construct.build_diagram(path)
    link = construct.kirby_link(path)
    csum = construct.classify(path)
    stats = construct.diagram_stats(diagram, csum)
    Path(args.out).write_text(_dump_json(_diagram_doc(diagram, link, csum, stats)))
    print(f"genus {stats.total_genus} {csum.normal_form}")
    return _EXIT_OK


def cmd_table(args) -> int:
    if args.pmax < 2:
        print("error: --pmax must be at least 2", file=sys.stderr)
        return _EXIT_INPUT
    try:
        rows = lens_mod.prop_bound_table(args.pmax, args.cap)
    except ValueError as exc:  # a cap below some lens space's complexity
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["p", "q", "twisted_n", "untwisted_n", "twisted_path", "untwisted_path", "exact"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.lens.p,
                    row.lens.q,
                    row.twisted.n,
                    row.untwisted.n,
                    str(row.twisted.path),
                    str(row.untwisted.path),
                    f"{row.twisted.exactness.value}/{row.untwisted.exactness.value}",
                ]
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return _EXIT_OK


# --- SVG rendering -----------------------------------------------------

_SQUARE = 100.0
_GAP = 20.0
_MARGIN = 10.0
_COLORS = {"red": "#CC0000", "green": "#008800", "blue": "#0000CC"}
# `render` refuses a diagram whose blue curves need more <line> elements
# than this (about 100 MB of SVG), far above the 22,400 of the largest
# diagram perfbench renders.
_MAX_BLUE_LINES = 10**6


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _wrap_segments(p: int, q: int, x_phase: Fraction, y_phase: Fraction):
    """Segments of the (p, q) line on the unit square with wrapping.

    The curve is t -> (p*t + x_phase, q*t + y_phase) mod 1 for t in
    [0, 1]; it is cut at the t where either coordinate crosses an
    integer.  Every breakpoint and endpoint lies on the lattice 1/u, so
    the cuts are enumerated in exact integers and each endpoint is
    returned as the correctly rounded float n / u.
    """
    if p == 0 and q == 0:
        return []
    u = math.lcm(max(abs(p), 1) * x_phase.denominator, max(abs(q), 1) * y_phase.denominator)
    axes = [
        (step, phase.numerator * (u // phase.denominator))
        for step, phase in ((p, x_phase), (q, y_phase))
    ]
    breaks = {0, u}
    for step, phase in axes:
        if step == 0:
            continue
        # Crossings of the integer k at t = (k*u - phase) / (step*u), 0 < t < 1.
        lo, hi = sorted((phase, step * u + phase))
        breaks.update((k * u - phase) // step for k in range(lo // u + 1, -(-hi // u)))
    ts = sorted(breaks)
    segments = []
    for a0, a1 in zip(ts, ts[1:]):
        ends = []
        for step, phase in axes:
            # Shift by the floor of the coordinate at the segment midpoint.
            shift = phase - (step * (a0 + a1) + 2 * phase) // (2 * u) * u
            ends.append(((step * a0 + shift) / u, (step * a1 + shift) / u))
        (x0, x1), (y0, y1) = ends
        segments.append((x0, y0, x1, y1))
    return segments


def _blue_lines(p: int, q: int) -> int:
    """How many segments `_wrap_segments(p, q, 0, 1/2)` cuts a curve into.

    p*t crosses an integer |p| - 1 times and q*t + 1/2 crosses one q
    times for t in (0, 1); they cross together only at t = 1/2, when p
    is even and q odd.  A 0/1 or 1/0 curve is one line.
    """
    if p == 0 or q == 0:
        return 1
    return abs(p) + q - (p % 2 == 0 and q % 2 == 1)


def _svg_line(x0, y0, x1, y1, color, width=2.0) -> str:
    return (
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round"/>'
    )


class _TooLarge(ValueError):
    """A well-formed diagram whose SVG would pass `_MAX_BLUE_LINES`."""


def _render_svg(doc: dict) -> str:
    """SVG of a genus-1 diagram document: one square per copy."""

    def records(color_name: str) -> list[dict]:
        recs = _expect(doc[color_name], list, f'"{color_name}"')
        return [_expect(rec, dict, f"a {color_name} curve") for rec in recs]

    copies = _unpack_int(doc["num_copies"])
    blue = records("blue")
    if copies != len(blue):  # genus 1: one blue curve per copy
        raise ValueError(f"num_copies is {copies} but there are {len(blue)} blue curves")
    width = 2 * _MARGIN + copies * _SQUARE + (copies - 1) * _GAP
    height = 2 * _MARGIN + _SQUARE
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    def origin(copy: int) -> float:
        return _MARGIN + copy * (_SQUARE + _GAP)

    def copy_index(v) -> int:
        copy = _unpack_int(v)
        if not 0 <= copy < copies:
            raise ValueError(f"copy index {copy} outside 0..{copies - 1}")
        return copy

    curves = []  # (copy, p, q) of each blue curve, p negated when reflected
    for rec in blue:
        copy = copy_index(rec["copy"])
        slope = _slope_from_doc(rec["slope"])
        curves.append((copy, -slope.p if rec["reflected"] else slope.p, slope.q))
    lines = sum(_blue_lines(p, q) for _, p, q in curves)
    if lines > _MAX_BLUE_LINES:
        raise _TooLarge(f"the blue curves need {lines} lines, above the limit of {_MAX_BLUE_LINES}")

    for k in range(copies):
        parts.append(
            f'<rect x="{_fmt(origin(k))}" y="{_fmt(_MARGIN)}" '
            f'width="{_fmt(_SQUARE)}" height="{_fmt(_SQUARE)}" '
            f'fill="none" stroke="#888888" stroke-width="1.000"/>'
        )

    def square_line(copy, x0, y0, x1, y1, color):
        ox = origin(copy)
        parts.append(
            _svg_line(
                ox + float(x0) * _SQUARE,
                _MARGIN + (1.0 - float(y0)) * _SQUARE,
                ox + float(x1) * _SQUARE,
                _MARGIN + (1.0 - float(y1)) * _SQUARE,
                color,
            )
        )

    for color_name, y_frac in (("red", 0.25), ("green", 0.75)):
        for rec in records(color_name):
            kind = rec["kind"]
            loc = copy_index(rec["location"])
            if kind == "longitude":
                square_line(loc, 0, y_frac, 1, y_frac, _COLORS[color_name])
            elif kind == "meridian":
                square_line(loc, 0.5 if color_name == "red" else 0.75, 0,
                            0.5 if color_name == "red" else 0.75, 1, _COLORS[color_name])
            elif kind == "bridge":
                x0 = origin(loc) + _SQUARE
                x1 = origin(loc + 1)
                y = _MARGIN + (1.0 - y_frac) * _SQUARE
                parts.append(_svg_line(x0, y, x1, y, _COLORS[color_name]))
            else:
                raise ValueError(f"unknown scaffold curve kind {kind!r}")

    tail = f'" stroke="{_COLORS["blue"]}" stroke-width="{_fmt(2.0)}" stroke-linecap="round"/>'
    for copy, p, q in curves:
        if q == 0:
            square_line(copy, 0, Fraction(1, 2), 1, Fraction(1, 2), _COLORS["blue"])
        elif p == 0:
            square_line(copy, Fraction(1, 2), 0, Fraction(1, 2), 1, _COLORS["blue"])
        else:
            ox = origin(copy)
            parts.extend(
                f'<line x1="{ox + x0 * _SQUARE:.3f}" y1="{_MARGIN + (1.0 - y0) * _SQUARE:.3f}" '
                f'x2="{ox + x1 * _SQUARE:.3f}" y2="{_MARGIN + (1.0 - y1) * _SQUARE:.3f}{tail}'
                for x0, y0, x1, y1 in _wrap_segments(p, q, Fraction(0), Fraction(1, 2))
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_diagram(file: str) -> dict | None:
    """The diagram document in `file`, or None after an error on stderr."""
    try:
        doc = json.loads(Path(file).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read diagram: {exc}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(
            f"error: malformed diagram: expected a JSON object, got {type(doc).__name__}",
            file=sys.stderr,
        )
        return None
    if not _same(doc.get("version"), _DIAGRAM_VERSION):
        version = json.dumps(doc["version"]) if "version" in doc else "missing"
        print(f"error: diagram version {version}; only {_DIAGRAM_VERSION} is read", file=sys.stderr)
        return None
    return doc


def cmd_render(args) -> int:
    doc = _load_diagram(args.input)
    if doc is None:
        return _EXIT_INPUT
    try:
        genus = _unpack_int(doc["genus_per_copy"])
    except (KeyError, ValueError) as exc:
        print(f"error: malformed diagram: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    if genus != 1:
        print("render unsupported for genus > 1, JSON only", file=sys.stderr)
        return _EXIT_VERIFY
    try:
        svg = _render_svg(doc)
    except _TooLarge as exc:
        print(f"error: cannot render diagram: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (KeyError, ValueError, InvalidSlopeError) as exc:
        print(f"error: malformed diagram: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    Path(args.output).write_text(svg)
    return _EXIT_OK


def cmd_verify(args) -> int:
    doc = _load_diagram(args.input)
    if doc is None:
        return _EXIT_INPUT
    try:
        path = _path_from_doc(doc["path"])
        kirby = _expect(doc.get("kirby", {}), dict, '"kirby"')
        _expect(kirby.get("curves", []), list, '"kirby.curves"')
    except (ValueError, KeyError, InvalidSlopeError) as exc:
        print(f"error: cannot read diagram: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    problems: list[str] = []
    violations = construct.validate_path(path)
    for v in violations:
        problems.append(f"walk: {v}")
    if not violations:
        diagram = construct.build_diagram(path)
        link = construct.kirby_link(path)
        csum = construct.classify(path)
        stats = construct.diagram_stats(diagram, csum)
        expected = _diagram_doc(diagram, link, csum, stats)
        problems.extend(f"unknown top-level key {json.dumps(k)}" for k in doc if k not in expected)
        for key in ("genus_per_copy", "num_copies"):
            if not _same(doc.get(key), expected[key]):
                problems.append(f"{key}: file says {doc.get(key)}, recomputed {expected[key]}")
        for color in ("blue", "red", "green"):
            if not _same(doc.get(color), expected[color]):
                problems.append(f"{color} curves do not match the recomputation")
        file_curves = kirby.get("curves", [])
        for want, got in zip(expected["kirby"]["curves"], file_curves):
            if not _same(got, want):
                problems.append(
                    f"kirby curve at layer {want['layer']} coordinate "
                    f"{want['coordinate']}: file says {got}, recomputed {want}"
                )
        if len(file_curves) != len(expected["kirby"]["curves"]):
            problems.append("kirby curve count does not match")
        difference = _matrix_difference(
            kirby.get("linking_matrix"), expected["kirby"]["linking_matrix"]
        )
        if difference:
            problems.append(difference)
        if not _same(doc.get("classification"), expected["classification"]):
            problems.append("classification does not match the recomputation")
        if not _same(doc.get("stats"), expected["stats"]):
            problems.append("stats do not match the recomputation")
        report = forms.consistency_check(path)
        if not report.ok:
            problems.extend(f"forms: {f}" for f in report.failures)
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return _EXIT_VERIFY
    print("OK diagram verifies: walk valid, structure, framings and form invariants agree")
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
