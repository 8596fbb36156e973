"""Diagram files: the `build`, `render` and `verify` commands of the CLI.

`cli` imports this module on the first of those commands, so the bound
commands (`dist`, `lens-bounds`, `table`) start without it, and `render`
loads neither `construct` nor `forms`.  Exit codes are those of `cli`.

A failing `verify` prints one `FAIL` line for each top-level key of the
recomputed diagram whose value differs, naming the first differing JSON
path in document order with both values:

    FAIL kirby.linking_matrix[0][1]: file says 2, recomputed 1
    FAIL kirby.curves[2].framing: file says 13, recomputed 14
    FAIL red: file has 3, recomputed 4
    FAIL blue: missing, recomputed a list of 4
    FAIL stats: unknown key "x"
    FAIL kirby: file says 3, recomputed an object
    FAIL unknown key "unexpected"

The file's value is quoted as its JSON; a recomputed list as `a list of
N`, an object as `an object` and a scalar as its JSON.  The last form is
an unknown top-level key.  A walk that breaks a rule gives `FAIL walk:`
lines instead, and a form invariant that disagrees a `FAIL forms:` line.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import lens as lens_mod
from .cli import _EXIT_INPUT, _EXIT_OK, _EXIT_VERIFY, _cannot_write
from .farey import InvalidSlopeError, Slope

if TYPE_CHECKING:
    from . import construct

_JSON_INT_LIMIT = 2**53 - 1


def _pack_int(n: int):
    """Ints beyond the float53 range travel as decimal strings; a ValueError
    when one passes Python's limit on the digits of int-to-string."""
    if -_JSON_INT_LIMIT <= n <= _JSON_INT_LIMIT:
        return n
    try:
        return str(n)
    except ValueError:
        raise ValueError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


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


_MISSING = object()


def _said(v) -> str:
    """How a message quotes the file's value: its JSON, or `missing`."""
    return "missing" if v is _MISSING else f"file says {json.dumps(v)}"


def _recomputed(v) -> str:
    """How a message quotes a recomputed value: a list by its length, an
    object by its kind, a scalar by its JSON."""
    if type(v) is list:
        return f"a list of {len(v)}"
    if type(v) is dict:
        return "an object"
    return json.dumps(v)


def _difference(where: str, got, want) -> str | None:
    """The first JSON path under `where` at which the file's `got` differs
    from the recomputed `want`, with both values; None when `_same`.

    Paths read `kirby.curves[2].framing`.  Keys are visited in the
    recomputed document's order and an unknown key comes after them; two
    lists of different lengths are named by their lengths.
    """
    if _same(got, want):
        return None
    if type(got) is type(want) is dict:
        for key, value in want.items():
            found = _difference(f"{where}.{key}", got.get(key, _MISSING), value)
            if found:
                return found
        unknown = next(key for key in got if key not in want)
        return f"{where}: unknown key {json.dumps(unknown)}"
    if type(got) is type(want) is list:
        if len(got) != len(want):
            return f"{where}: file has {len(got)}, recomputed {len(want)}"
        return next(
            found
            for i, (mine, value) in enumerate(zip(got, want))
            if (found := _difference(f"{where}[{i}]", mine, value))
        )
    return f"{where}: {_said(got)}, recomputed {_recomputed(want)}"


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
    from . import construct  # here and in build and verify, so render runs without it

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
            "linking_matrix": _matrix_doc(link),
        },
        "classification": {
            "raw_untwisted": csum.raw_untwisted,
            "raw_twisted": csum.raw_twisted,
            "normal_form": csum.normal_form,
        },
        "stats": {
            "total_genus": diagram.total_genus,
            "ball_count": diagram.ball_count,
            # Minimal genus exactly when no coordinate step past D_1 is parallel.
            "minimal": diagram.total_genus == 2 * csum.total,
        },
    }


def _matrix_doc(link: construct.FramedLink) -> list[list]:
    """The linking matrix as rows of `_pack_int`, each row copied whole when
    max |p| * max q over the curves, a bound on every entry p_a * q_b, fits."""
    p = max(abs(c.slope.p) for c in link.curves)
    q = max(c.slope.q for c in link.curves)
    if p * q <= _JSON_INT_LIMIT:
        return [list(row) for row in link.linking_matrix]
    return [[_pack_int(x) for x in row] for row in link.linking_matrix]


_ESCAPE = json.encoder.encode_basestring_ascii
# The JSON text of every scalar type but float, which `json.dumps` spells.
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def _dump_json(doc) -> str:
    """`json.dumps(doc, indent=2) + "\n"`, byte for byte, for any JSON value.

    CPython's C encoder runs only when `indent` is None, so `json.dumps`
    with an indent encodes every diagram in pure Python and gives each
    linking-matrix entry its own call.  Here strings and keys go through
    the C escaper, a list of plain ints (not bools) is one list repr, and
    a scalar is written in the same string as its key or separator.
    """
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(v, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON text of `v`, nested after `newline`, to `out`."""
    kind = type(v)
    if kind not in (dict, list, tuple):
        out.append(_SCALARS.get(kind, json.dumps)(v))
        return
    if not v:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep, heads, close = "{" + inner, [_ESCAPE(k) + ": " for k in v], newline + "}"
        v = v.values()
    elif set(map(type, v)) == {int}:  # repr spells a list of plain ints as JSON does
        out.append("[" + inner + repr(list(v))[1:-1].replace(", ", "," + inner) + newline + "]")
        return
    else:
        sep, heads, close = "[" + inner, itertools.repeat(""), newline + "]"
    for head, x in zip(heads, v):
        scalar = _SCALARS.get(type(x))
        if scalar is None:
            out.append(sep + head)
            _encode(x, inner, out)
        else:
            out.append(sep + head + scalar(x))
        sep = "," + inner
    out.append(close)


def _load_path_file(path_file: str) -> construct.DualPath:
    """The walk in `path_file`.  JSON nested too deeply for the decoder
    raises RecursionError, which is read as a ValueError."""
    try:
        doc = json.loads(Path(path_file).read_text())
    except RecursionError as exc:
        raise ValueError(exc) from None
    return _path_from_doc(doc)


def build(args) -> int:
    """`build`: write the diagram of a lens space's walk or of a walk file."""
    from . import construct

    if args.path_file is not None:
        given = [
            name
            for name, value in (("p q", args.p), ("--mode", args.mode))
            if value is not None
        ]
        if given:
            print(f"error: --path-file takes no {', '.join(given)}", file=sys.stderr)
            return _EXIT_INPUT
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
            path = construct.path_from_lens(lens, args.mode or "any")
        except ValueError as exc:  # not a lens space
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_INPUT
    diagram = construct.build_diagram(path)
    link = construct.kirby_link(path)
    csum = construct.classify(path)
    try:
        Path(args.out).write_text(_dump_json(_diagram_doc(diagram, link, csum)))
    except (OSError, ValueError) as exc:  # ValueError: an integer too long to write
        return _cannot_write(args.out, exc)
    print(f"genus {diagram.total_genus} {csum.normal_form}")
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


_BLUE_TAIL = f'" stroke="{_COLORS["blue"]}" stroke-width="{_fmt(2.0)}" stroke-linecap="round"/>'


def _blue_line_elements(ox: float, p: int, q: int) -> list[str]:
    """The `<line>` elements of the blue (p, q) curve, p != 0 < q, in the
    square whose left edge is at `ox`.

    The curve is t -> (p*t, q*t + 1/2) mod 1 for t in [0, 1], cut where
    a coordinate crosses an integer.  With u = lcm(|p|, 2q) every cut is
    a lattice point a/u: x crosses at the multiples of u/|p| and y at the
    odd multiples of u/(2q).  A coordinate's numerator at a cut is its
    value times u, reduced mod u, and is 0 at that coordinate's own cuts.
    Each numerator is formatted once, and the segment that ends at a cut
    shares that text with the one that starts there.  A coordinate that
    wraps at the cut reads u there instead of 0: at the end of the
    segment before it for a positive step, at the start of the one after
    it for a negative one.  Each endpoint n/u is the correctly rounded
    float of the exact rational, as in the reference
    `wrap_segments_fraction` of the tests.
    """
    u = math.lcm(abs(p), 2 * q)
    dx, dy = u // abs(p), u // (2 * q)
    cuts = sorted({0, u, *range(dx, u, dx), *range(dy, u, 2 * dy)})
    square, margin, half, tail = _SQUARE, _MARGIN, u // 2, _BLUE_TAIL

    def x_text(n: int) -> str:
        return f"{ox + n / u * square:.3f}"

    def y_text(n: int) -> str:
        return f"{margin + (1.0 - n / u) * square:.3f}"

    xn = [p * a % u for a in cuts]
    yn = [(q * a + half) % u for a in cuts]
    x0, xu, y0, yu = x_text(0), x_text(u), y_text(0), y_text(u)
    x = [x0 if n == 0 else x_text(n) for n in xn]
    y_start = [y0 if n == 0 else y_text(n) for n in yn]
    y_end = [yu if n == 0 else t for n, t in zip(yn, y_start)]
    x_wrapped = [xu if n == 0 else t for n, t in zip(xn, x)]
    x_start, x_end = (x, x_wrapped) if p > 0 else (x_wrapped, x)
    return [
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}{tail}'
        for x1, y1, x2, y2 in zip(x_start, y_start, x_end[1:], y_end[1:])
    ]


def _blue_lines(p: int, q: int) -> int:
    """How many segments the blue (p, q) curve is cut into.

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

    for copy, p, q in curves:
        if q == 0:
            square_line(copy, 0, 0.5, 1, 0.5, _COLORS["blue"])
        elif p == 0:
            square_line(copy, 0.5, 0, 0.5, 1, _COLORS["blue"])
        else:
            parts.extend(_blue_line_elements(origin(copy), p, q))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_diagram(file: str) -> dict | None:
    """The diagram document in `file`, or None after an error on stderr."""
    try:
        doc = json.loads(Path(file).read_text())
    except (OSError, ValueError, RecursionError) as exc:
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


def render(args) -> int:
    """`render`: draw a genus-1 diagram file as SVG."""
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
    try:
        Path(args.output).write_text(svg)
    except OSError as exc:
        return _cannot_write(args.output, exc)
    return _EXIT_OK


def verify(args) -> int:
    """`verify`: recompute a diagram file from its walk and compare."""
    from . import construct, forms

    doc = _load_diagram(args.input)
    if doc is None:
        return _EXIT_INPUT
    try:
        path = _path_from_doc(doc["path"])
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
        try:
            expected = _diagram_doc(diagram, link, csum)
        except ValueError as exc:  # an integer too long to write
            print(f"error: cannot recompute the diagram: {exc}", file=sys.stderr)
            return _EXIT_INPUT
        problems.extend(f"unknown key {json.dumps(k)}" for k in doc if k not in expected)
        for key, want in expected.items():
            difference = _difference(key, doc.get(key, _MISSING), want)
            if difference:
                problems.append(difference)
        report = forms.consistency_check(link, csum)
        if not report.ok:
            problems.extend(f"forms: {f}" for f in report.failures)
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return _EXIT_VERIFY
    print("OK diagram verifies: walk valid, structure, framings and form invariants agree")
    return _EXIT_OK
