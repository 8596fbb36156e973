"""Output checks, written independently of spinebound.

Nothing here imports the program.  Walks are parsed back from the CLI's
text output and checked with plain integer arithmetic; distances are
checked against a breadth-first search over the capped Farey graph whose
edges are found by scanning.  Every check raises CheckFailed with the
first problem it finds and otherwise returns the bound answers it saw as
(n, certified) pairs.
"""

from __future__ import annotations

import csv
import io
import json
import math

from inputs import Walk

CERTIFIED = "certified"
EXACTNESS = (CERTIFIED, "upper_bound")

# Table rows with p up to this are checked against the distance oracle.
ORACLE_PMAX = 15

Slope = tuple[int, int]
Answer = tuple[int, bool]


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def lens_reps(p: int, q: int) -> set[int]:
    """The q' with L(p, q') homeomorphic to L(p, q): +-q^(+-1) mod p."""
    qi = pow(q, -1, p)
    return {q % p, -q % p, qi, -qi % p}


def table_classes(pmax: int) -> list[tuple[int, int]]:
    """One (p, q) per lens space class with 2 <= p <= pmax, q the smallest representative."""
    return [
        (p, q)
        for p in range(2, pmax + 1)
        for q in range(1, p)
        if math.gcd(p, q) == 1 and q == min(lens_reps(p, q))
    ]


def parse_slope(text: str) -> Slope:
    num, slash, den = text.partition("/")
    _require(slash == "/", f"not a slope: {text!r}")
    return int(num), int(den)


def check_walk(vertices: list[Slope], p: int, q: int, even: bool) -> Slope:
    """A dual walk 0/1, 1/0, ... ending at p/q' for a representative q'; returns the end."""
    _require(len(vertices) >= 3, f"walk too short: {vertices}")
    _require(vertices[0] == (0, 1) and vertices[1] == (1, 0), "walk must start 0/1, 1/0")
    for a, b in vertices:
        _require(b > 0 or (a, b) == (1, 0), f"{a}/{b} is not canonical")
        _require(math.gcd(a, b) == 1, f"{a}/{b} is not reduced")
        _require(not even or (a * b) % 2 == 0, f"{a}/{b} is odd in an untwisted walk")
    for (a, b), (c, d) in zip(vertices, vertices[1:]):
        _require(abs(a * d - b * c) == 1, f"{a}/{b} -> {c}/{d} is not a dual step")
    end = vertices[-1]
    _require(end[0] == p and end[1] in lens_reps(p, q), f"walk ends at {end}, not a slope of L({p},{q})")
    return end


def _check_bound(n: int, vertices: list[Slope], exactness: str, p: int, q: int, even: bool) -> Answer:
    check_walk(vertices, p, q, even)
    _require(n == len(vertices) - 2, f"n = {n} but the walk has {len(vertices) - 1} edges")
    _require(exactness in EXACTNESS, f"unknown exactness {exactness!r}")
    return n, exactness == CERTIFIED


def check_lens_bounds(p: int, q: int, stdout: str) -> list[Answer]:
    doc = json.loads(stdout)
    _require((doc["p"], doc["q"]) == (p, q), f"echoes L({doc['p']},{doc['q']})")
    _require(
        sorted(r["q"] for r in doc["reps"]) == sorted(lens_reps(p, q)), "wrong representatives"
    )
    answers = []
    for key, even in (("twisted", False), ("untwisted", True)):
        bound = doc[key]
        vertices = [parse_slope(v) for v in bound["path"]]
        answers.append(_check_bound(bound["n"], vertices, bound["exactness"], p, q, even))
        rep = bound["representative"]
        _require((rep["p"], rep["q"]) == vertices[-1], f"{key} representative is not the walk's end")
    _require(answers[0][0] <= answers[1][0], "twisted n exceeds untwisted n")
    return answers


def check_table(text: str, pmax: int, oracle: "CappedOracle | None" = None) -> list[Answer]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(
        rows[0] == ["p", "q", "twisted_n", "untwisted_n", "twisted_path", "untwisted_path", "exact"],
        f"unexpected header {rows[0]}",
    )
    classes = table_classes(pmax)
    _require(len(rows) - 1 == len(classes), f"{len(rows) - 1} rows, expected {len(classes)}")
    answers = []
    for row, (p, q) in zip(rows[1:], classes):
        _require((int(row[0]), int(row[1])) == (p, q), f"row {row[:2]} where L({p},{q}) belongs")
        twisted_exact, untwisted_exact = row[6].split("/")
        pair = []
        for n, path, exact, even in (
            (row[2], row[4], twisted_exact, False),
            (row[3], row[5], untwisted_exact, True),
        ):
            vertices = [parse_slope(v) for v in path.split()]
            pair.append(_check_bound(int(n), vertices, exact, p, q, even))
        _require(pair[0][0] <= pair[1][0], f"L({p},{q}): twisted n exceeds untwisted n")
        if oracle is not None and p <= ORACLE_PMAX:
            for (n, certified), even in zip(pair, (False, True)):
                best = oracle.bound(p, q, even)
                _require(n == best if certified else n >= best,
                         f"L({p},{q}) {'untwisted' if even else 'twisted'}: n = {n}, oracle {best}")
        answers.extend(pair)
    return answers


def _scan_neighbours(v: Slope, cap: int) -> list[Slope]:
    """Every c/d with |c| <= cap, 0 <= d <= cap and a*d - b*c = +-1, by scanning d."""
    a, b = v
    if b == 0:
        return [(c, 1) for c in range(-cap, cap + 1)]
    out = [(1, 0)] if b == 1 else []
    plus, minus = 1 % b, -1 % b
    for d in range(1, cap + 1):
        r = a * d % b
        if r == plus and -cap <= (a * d - 1) // b <= cap:
            out.append(((a * d - 1) // b, d))
        if r == minus and -cap <= (a * d + 1) // b <= cap:
            out.append(((a * d + 1) // b, d))
    return out


def capped_distances(cap: int, even: bool, targets: set[Slope]) -> dict[Slope, int]:
    """Distances from 1/0 to `targets` in the Farey graph cut to |p| <= cap, q <= cap.

    With `even`, only slopes p/q with p*q even are vertices.  The search
    stops once every target has been reached.
    """
    dist = {(1, 0): 0}
    frontier = [(1, 0)]
    missing = set(targets) - set(dist)
    depth = 0
    while frontier and missing:
        depth += 1
        nxt = []
        for v in frontier:
            for w in _scan_neighbours(v, cap):
                if w in dist or (even and (w[0] * w[1]) % 2):
                    continue
                dist[w] = depth
                nxt.append(w)
                missing.discard(w)
        frontier = nxt
    _require(not missing, f"targets {sorted(missing)} unreachable within cap {cap}")
    return {t: dist[t] for t in targets}


class CappedOracle:
    """Summand bounds of small lens spaces by brute force over the capped graph.

    Uses the program's documented default cap 8 * max(p, 4) and returns
    min over representatives q' of the distance from 1/0 to p/q', which is
    the walk length from 0/1 minus one.  One search per (p, graph) serves
    every q.
    """

    def __init__(self):
        self._dist: dict[tuple[int, bool], dict[Slope, int]] = {}

    def bound(self, p: int, q: int, even: bool) -> int:
        if (p, even) not in self._dist:
            targets = {
                (p, r) for r in range(1, p)
                if math.gcd(p, r) == 1 and (not even or (p * r) % 2 == 0)
            }
            self._dist[p, even] = capped_distances(8 * max(p, 4), even, targets)
        dist = self._dist[p, even]
        return min(dist[p, r] for r in lens_reps(p, q) if (p, r) in dist)


def check_build(walk: Walk, stdout: str, diagram: str) -> None:
    twisted = walk.twisted
    untwisted = walk.summands - twisted
    form = f"#{walk.summands} S2x~S2" if twisted else f"#{untwisted} S2xS2"
    genus = 2 * walk.genus * (walk.steps - 1)
    _require(stdout == f"genus {genus} {form}\n", f"build printed {stdout!r}")
    doc = json.loads(diagram)
    _require(doc["path"] == walk.doc(), "diagram path differs from the input walk")
    _require(doc["genus_per_copy"] == walk.genus, "wrong genus_per_copy")
    _require(doc["num_copies"] == 2 * (walk.steps - 1), "wrong num_copies")
    _require(len(doc["kirby"]["linking_matrix"]) == walk.order, "wrong linking matrix order")
    _require(
        doc["classification"]
        == {"raw_untwisted": untwisted, "raw_twisted": twisted, "normal_form": form},
        f"wrong classification {doc['classification']}",
    )


def check_verify(walk: Walk, stdout: str) -> list[Answer]:
    """A verified diagram is a certified answer with n = the walk's summand count."""
    _require(stdout.startswith("OK "), f"verify printed {stdout[:200]!r}")
    return [(walk.summands, True)]


def check_tampered(stdout: str) -> None:
    _require(stdout.startswith("FAIL "), f"tampered diagram: verify printed {stdout[:200]!r}")


def check_render(walk: Walk, svg: str) -> None:
    """Counts the SVG's squares and lines against the walk: one square per
    copy, red and green each one curve on an end copy plus a bridge per gap."""
    _require(svg.startswith("<?xml") and svg.endswith("</svg>\n"), "SVG is not complete")
    copies = 2 * (walk.steps - 1)
    counts = {
        "<rect ": copies,
        'stroke="#0000CC"': walk.blue_lines,
        'stroke="#CC0000"': copies,
        'stroke="#008800"': copies,
    }
    for marker, want in counts.items():
        got = svg.count(marker)
        _require(got == want, f"SVG has {got} of {marker!r}, expected {want}")
