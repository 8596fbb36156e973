"""Diagram files: the `build`, `render` and `verify` commands of the CLI.

`cli` imports this module on the first of those commands, so the bound
commands (`dist`, `lens-bounds`, `table`) start without it, and `render`
loads neither `construct` nor `forms`.  Exit codes are those of `cli`.

`verify` decodes the walk where `build` writes it and recomputes the
file's text: equal bytes verify once the form invariants agree.  Any
other file verifies when it equals the recomputed document as JSON; else
`verify` prints one `FAIL` line for each top-level key of the recomputed
diagram whose value differs, naming the first differing JSON path in
document order with both values:

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

import json
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import lens as lens_mod
from .cli import _EXIT_INPUT, _EXIT_OK, _EXIT_VERIFY, _cannot_write
from .farey import InvalidSlopeError, Slope

if TYPE_CHECKING:
    from . import construct

_JSON_INT_LIMIT = 2**53 - 1


def _pack_int(n: int) -> str:
    """The JSON of `n`, a string beyond the float53 range; a ValueError
    when `n` passes Python's limit on the digits of int-to-string."""
    try:
        text = str(n)
    except ValueError:
        raise ValueError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None
    return text if -_JSON_INT_LIMIT <= n <= _JSON_INT_LIMIT else f'"{text}"'


_DECIMAL = re.compile(r"-?[0-9]+")


def _unpack_int(v) -> int:
    """A JSON integer, or a string of decimal digits as `_pack_int` writes one."""
    if type(v) is int or (type(v) is str and _DECIMAL.fullmatch(v)):
        return int(v)
    raise ValueError(f"expected an integer field, got {v!r}")


def _expect(v, kind: type, what: str):
    """`v` if it is a JSON object (kind dict), list or boolean, else a ValueError."""
    if not isinstance(v, kind):
        name = {dict: "an object", list: "a list", bool: "a boolean"}[kind]
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


def _slope_from_doc(doc) -> Slope:
    doc = _expect(doc, dict, "a slope")
    return Slope(_unpack_int(doc["p"]), _unpack_int(doc["q"]))


def _path_from_doc(doc) -> construct.DualPath:
    from . import construct  # in the functions, so render runs without it

    doc = _expect(doc, dict, "the walk")
    mode = construct.PathMode(doc["mode"])
    systems = tuple(
        tuple(_slope_from_doc(s) for s in _expect(sys_, list, "a curve system"))
        for sys_ in _expect(doc["systems"], list, '"systems"')
    )
    return construct.DualPath(systems, mode)


_DIAGRAM_VERSION = 1


def _slope_text(s: Slope, indent: str) -> str:
    """A slope object, its braces at `indent`."""
    return f'{{\n{indent}  "p": {_pack_int(s.p)},\n{indent}  "q": {_pack_int(s.q)}\n{indent}}}'


def _diagram_text(
    diagram: construct.TrisectionDiagram, link: construct.FramedLink, csum: construct.ConnectSum
) -> str:
    """A valid walk's diagram file, as `json.dumps(doc, indent=2) + "\n"`
    spells its document.  Integers go through `_pack_int`, but a matrix
    row is written whole when max |p| * max q, a bound on its entries, fits.
    """
    systems = ",\n".join(
        "      [\n" + ",\n".join(f"        {_slope_text(s, '        ')}" for s in system) + "\n      ]"
        for system in diagram.path.systems
    )
    blue = ",\n".join(
        f'    {{\n      "copy": {c.copy},\n      "coordinate": {c.coordinate},\n'
        f'      "slope": {_slope_text(c.slope, "      ")},\n'
        f'      "reflected": {"true" if c.reflected else "false"}\n    }}'
        for c in diagram.blue
    )
    red, green = (
        ",\n".join(
            f'    {{\n      "kind": "{c.kind}",\n      "location": {c.location},\n'
            f'      "coordinate": {c.coordinate}\n    }}'
            for c in scaffold
        )
        for scaffold in (diagram.red, diagram.green)
    )
    curves = ",\n".join(
        f'      {{\n        "layer": {c.layer},\n        "coordinate": {c.coordinate},\n'
        f'        "slope": {_slope_text(c.slope, "        ")},\n'
        f'        "framing": {_pack_int(c.framing)}\n      }}'
        for c in link.curves
    )
    p = max(abs(c.slope.p) for c in link.curves)
    q = max(c.slope.q for c in link.curves)
    entry = str if p * q <= _JSON_INT_LIMIT else _pack_int
    matrix = ",\n".join(
        "      [\n        " + ",\n        ".join(map(entry, row)) + "\n      ]" for row in link.rows()
    )
    # Minimal genus exactly when no coordinate step past D_1 is parallel.
    minimal = "true" if diagram.total_genus == 2 * csum.total else "false"
    return (
        f'{{\n  "version": {_DIAGRAM_VERSION},\n  "genus_per_copy": {diagram.genus_per_copy},\n'
        f'  "num_copies": {diagram.num_copies},\n'
        f'  "path": {{\n    "mode": "{diagram.path.mode.value}",\n    "systems": [\n{systems}\n    ]\n  }},\n'
        f'  "blue": [\n{blue}\n  ],\n  "red": [\n{red}\n  ],\n  "green": [\n{green}\n  ],\n'
        f'  "kirby": {{\n    "curves": [\n{curves}\n    ],\n    "linking_matrix": [\n{matrix}\n    ]\n  }},\n'
        f'  "classification": {{\n    "raw_untwisted": {csum.raw_untwisted},\n'
        f'    "raw_twisted": {csum.raw_twisted},\n    "normal_form": "{csum.normal_form}"\n  }},\n'
        f'  "stats": {{\n    "total_genus": {diagram.total_genus},\n'
        f'    "ball_count": {"null" if diagram.ball_count is None else diagram.ball_count},\n'
        f'    "minimal": {minimal}\n  }}\n}}\n'
    )


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
            path = _path_from_doc(json.loads(Path(args.path_file).read_text()))
        except (OSError, ValueError, KeyError, RecursionError) as exc:
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
        Path(args.out).write_text(_diagram_text(diagram, link, csum))
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
        reflected = _expect(rec["reflected"], bool, '"reflected"')
        curves.append((copy, -slope.p if reflected else slope.p, slope.q))
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


def _read_diagram(file: str) -> str | None:
    """The text of `file`, or None after an error on stderr."""
    try:
        return Path(file).read_text()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read diagram: {exc}", file=sys.stderr)
        return None


def _load_diagram(text: str) -> dict | None:
    """The diagram document in `text`, or None after an error on stderr."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    text = _read_diagram(args.input)
    doc = None if text is None else _load_diagram(text)
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


def _recompute(path: construct.DualPath):
    """The diagram text, framed link and connect sum of a valid walk."""
    from . import construct

    link, csum = construct.kirby_link(path), construct.classify(path)
    return _diagram_text(construct.build_diagram(path), link, csum), link, csum


_PATH_KEY = '\n  "path": '


def _written_walk(text: str) -> construct.DualPath | None:
    """The walk decoded where `build` writes it in a diagram file, or None."""
    start = text.find(_PATH_KEY)
    if start < 0:
        return None
    try:
        return _path_from_doc(json.JSONDecoder().raw_decode(text, start + len(_PATH_KEY))[0])
    except (ValueError, KeyError, RecursionError):
        return None


def verify(args) -> int:
    """`verify`: recompute a diagram file from its walk and compare."""
    from . import construct, forms

    text = _read_diagram(args.input)
    if text is None:
        return _EXIT_INPUT
    recomputed = None
    walk = _written_walk(text)
    if walk is not None and not construct.validate_path(walk):
        try:
            recomputed, link, csum = _recompute(walk)
        except ValueError:  # an integer too long to write, reported below
            pass
    problems: list[str] = []
    if recomputed != text:
        doc = _load_diagram(text)
        if doc is None:
            return _EXIT_INPUT
        try:
            path = _path_from_doc(doc["path"])
        except (ValueError, KeyError) as exc:
            print(f"error: cannot read diagram: {exc}", file=sys.stderr)
            return _EXIT_INPUT
        if recomputed is None or path != walk:
            violations = construct.validate_path(path)
            if violations:
                for v in violations:
                    print(f"FAIL walk: {v}")
                return _EXIT_VERIFY
            try:
                recomputed, link, csum = _recompute(path)
            except ValueError as exc:
                print(f"error: cannot recompute the diagram: {exc}", file=sys.stderr)
                return _EXIT_INPUT
        expected = json.loads(recomputed)
        problems.extend(f"unknown key {json.dumps(k)}" for k in doc if k not in expected)
        for key, want in expected.items():
            difference = _difference(key, doc.get(key, _MISSING), want)
            if difference:
                problems.append(difference)
    report = forms.consistency_check(link, csum)
    problems.extend(f"forms: {f}" for f in report.failures)
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return _EXIT_VERIFY
    print("OK diagram verifies: walk valid, structure, framings and form invariants agree")
    return _EXIT_OK
