"""Command-line surface: distances, bounds, diagram files and checks.

Commands
    dist         distance between two slopes (optionally in the even graph)
    lens-bounds  twisted/untwisted summand bounds for one lens space
    build        construct a diagram JSON file from a lens space or path file
    table        CSV of bounds for all lens spaces up to a given p
    render       schematic SVG of a genus-1 diagram JSON
    verify       recompute and cross-check a diagram JSON

Exit codes: 0 success, 1 input error, 2 verification failure, 3 the
full-graph search ran out of its node budget (the best known upper bound
is printed).  Every other distance printed is exact for the whole graph.
All output is deterministic: identical inputs give byte-identical files.
`build`, `render` and `verify` live in `spinebound.diagrams`, which is
loaded on the first of them; its docstring gives the `verify` `FAIL`
lines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys

from . import lens as lens_mod
from .evenfarey import even_distance
from .farey import (
    DomainError,
    InvalidSlopeError,
    NoPathWithinCap,
    Slope,
    farey_distance,
)

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_VERIFY = 2
_EXIT_EXHAUSTED = 3


def _bound_doc(result: lens_mod.BoundResult) -> dict:
    return {
        "n": result.n,
        "path": [str(v) for v in result.path.vertices],
        "representative": {"p": result.representative.p, "q": result.representative.q},
        "exactness": result.exactness.value,
    }


# argparse reads only -<digits> as a negative number and anything else
# that starts with "-" as an option.
_NEGATIVE_SLOPE = re.compile(r"-\d+/-?\d+")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; keep 2 for verify failures
        self.print_usage(sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        """A negative slope such as -5/2 is an argument, not an option."""
        if _NEGATIVE_SLOPE.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` finds each command's
    `cmd_*` function by name when it runs it."""
    parser = _Parser(prog="spinebound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two slopes")
    p_dist.add_argument("a", help="slope, e.g. 0/1")
    p_dist.add_argument("b", help="slope, e.g. 7/2")
    p_dist.add_argument("--even", action="store_true", help="restrict to the even graph")

    p_lb = sub.add_parser("lens-bounds", help="summand bounds for L(p, q)")
    p_lb.add_argument("p", type=int)
    p_lb.add_argument("q", type=int)

    p_build = sub.add_parser("build", help="build a diagram JSON file")
    p_build.add_argument("p", type=int, nargs="?")
    p_build.add_argument("q", type=int, nargs="?")
    p_build.add_argument("--path-file", default=None, help="JSON walk instead of a lens space")
    p_build.add_argument("--mode", choices=("any", "even"), default=None)
    p_build.add_argument("--out", default="diagram.json")

    p_table = sub.add_parser("table", help="CSV of bounds for all p <= pmax")
    p_table.add_argument("--pmax", type=int, required=True)
    p_table.add_argument("--out", default=None, help="CSV path (default: stdout)")

    p_render = sub.add_parser("render", help="render a genus-1 diagram JSON as SVG")
    p_render.add_argument("input", help="diagram JSON path")
    p_render.add_argument("output", help="SVG path")

    p_verify = sub.add_parser("verify", help="recompute and check a diagram JSON")
    p_verify.add_argument("input", help="diagram JSON path")
    return parser


def cmd_dist(args) -> int:
    try:
        a = Slope.parse(args.a)
        b = Slope.parse(args.b)
    except InvalidSlopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    try:
        d, path = even_distance(a, b) if args.even else farey_distance(a, b)
    except DomainError as exc:  # an odd endpoint in the even graph
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except NoPathWithinCap as exc:
        print(f"no path within the search budget; upper bound {exc.upper_bound} : {exc.path}")
        return _EXIT_EXHAUSTED
    if d == 0:
        print("0")
    else:
        print(f"{d} : {path}")
    print("exactness: exact")
    return _EXIT_OK


def cmd_lens_bounds(args) -> int:
    try:
        lens = lens_mod.normalize(args.p, args.q)
        reps = sorted(lens_mod.equivalent_reps(lens), key=lambda r: r.q)
        doc = {
            "p": lens.p,
            "q": lens.q,
            "reps": [{"p": r.p, "q": r.q} for r in reps],
            "twisted": _bound_doc(lens_mod.twisted_bound(lens)),
            "untwisted": _bound_doc(lens_mod.untwisted_bound(lens)),
        }
    except ValueError as exc:  # not a lens space
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK


def _cannot_write(file: str, exc: OSError) -> int:
    """Report an output file that could not be written; the exit code."""
    print(f"error: cannot write {file}: {exc}", file=sys.stderr)
    return _EXIT_INPUT


def cmd_build(args) -> int:
    from . import diagrams  # on first use, so the bound commands start without it

    return diagrams.build(args)


def cmd_table(args) -> int:
    if args.pmax < 2:
        print("error: --pmax must be at least 2", file=sys.stderr)
        return _EXIT_INPUT
    try:  # before the rows are computed, so a bad --out fails at once
        out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    except OSError as exc:
        return _cannot_write(args.out, exc)
    try:
        rows = lens_mod.prop_bound_table(args.pmax)
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


def cmd_render(args) -> int:
    from . import diagrams

    return diagrams.render(args)


def cmd_verify(args) -> int:
    from . import diagrams

    return diagrams.verify(args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
