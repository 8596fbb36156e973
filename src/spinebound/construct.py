"""Trisection diagrams and Kirby diagrams from walks of cut systems.

A genus-g cut system here is a g-tuple of torus slopes (one per torus
factor of the model surface).  A walk D_0, ..., D_m of cut systems with
D_0 = meridians, D_1 = longitudes, every coordinate step dual (strict
mode) or dual-or-parallel (parallel mode) unfolds into a trisection
surface made of 2(m - 1) copies of the genus-g surface laid side by side:
blue curves carry D_2 ... D_m, D_{m-1} ... D_2, D_1 across the copies
(every even-index layer drawn reflected), red and green scaffold curves
fill in longitudes, meridians and one bridge pair per gap.

Folding the surface into a standard Heegaard solid torus stack reads the
blue curves as a framed link on nested tori, with the (p, q) curve framed
by p*q; successive handle slides split off one Hopf-link summand per dual
coordinate step (S2 x S2 for even framing, the twisted bundle for odd),
while parallel steps cancel without contributing a summand.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .lens import LensSpace, twisted_bound, untwisted_bound
from .farey import (
    LONGITUDE,
    MERIDIAN,
    Slope,
    farey_det,
)

CutSystem = tuple[Slope, ...]


class PathMode(str, Enum):
    DUAL = "dual"  # every coordinate of every step is dual
    PARALLEL = "parallel"  # coordinates may also repeat (parallel step)


class _DualPathFields(NamedTuple):
    systems: tuple[CutSystem, ...]
    mode: PathMode = PathMode.DUAL


class DualPath(_DualPathFields):
    """A walk of cut systems, D_0 ... D_m, with the standard start.

    Structural sanity (nonempty, constant genus) is enforced here; the
    full step-by-step legality check lives in :func:`validate_path` so
    that foreign input can be diagnosed rather than rejected opaquely.
    """

    __slots__ = ()

    def __new__(cls, systems: tuple[CutSystem, ...], mode: PathMode = PathMode.DUAL):
        if not systems:
            raise ValueError("a path needs at least one cut system")
        genus = len(systems[0])
        if genus < 1:
            raise ValueError("cut systems need at least one coordinate")
        for sys_ in systems:
            if len(sys_) != genus:
                raise ValueError("all cut systems must have the same genus")
        return tuple.__new__(cls, (systems, mode))

    @property
    def genus(self) -> int:
        return len(self.systems[0])

    @property
    def steps(self) -> int:
        return len(self.systems) - 1


class ViolationKind(str, Enum):
    TOO_SHORT = "too_short"  # fewer than two steps
    BAD_START = "bad_start"  # D_0 not all 0/1, or D_1 not all 1/0
    EQUAL_SLOPES = "equal_slopes"  # a coordinate repeats in strict mode
    NOT_DUAL = "not_dual"  # a coordinate step that is neither dual nor equal
    PARALLEL_STEP = "parallel_step"  # a whole system repeats in parallel mode


class PathViolation(NamedTuple):
    step: int | None
    coordinate: int | None
    kind: ViolationKind
    condition: str

    def __str__(self) -> str:
        where = []
        if self.step is not None:
            where.append(f"step {self.step}")
        if self.coordinate is not None:
            where.append(f"coordinate {self.coordinate}")
        prefix = ", ".join(where)
        return f"{prefix}: {self.condition}" if prefix else self.condition


def validate_path(path: DualPath) -> list[PathViolation]:
    """All the ways a walk fails to be a legal diagram input.

    Returns an empty list exactly when the walk starts with meridians
    then longitudes, has at least two steps, and every coordinate step is
    dual (strict mode) or dual-or-equal with no step entirely equal
    (parallel mode).
    """
    out: list[PathViolation] = []

    def add(step: int | None, coordinate: int | None, kind: ViolationKind, condition: str):
        out.append(PathViolation(step, coordinate, kind, condition))

    g = path.genus
    if path.steps < 2:
        add(None, None, ViolationKind.TOO_SHORT, f"need at least 2 steps, found {path.steps}")
    for j in range(g):
        if path.systems[0][j] != MERIDIAN:
            first = path.systems[0][j]
            add(0, j, ViolationKind.BAD_START, f"first system must be 0/1, found {first}")
        if len(path.systems) > 1 and path.systems[1][j] != LONGITUDE:
            second = path.systems[1][j]
            add(1, j, ViolationKind.BAD_START, f"second system must be 1/0, found {second}")
    for i in range(1, len(path.systems)):
        prev, cur = path.systems[i - 1], path.systems[i]
        all_equal = True
        for j in range(g):
            if prev[j] == cur[j]:
                if path.mode is PathMode.DUAL:
                    add(i, j, ViolationKind.EQUAL_SLOPES, "slopes equal; strict mode requires dual")
                continue
            all_equal = False
            det = farey_det(prev[j], cur[j])
            if abs(det) != 1:
                add(i, j, ViolationKind.NOT_DUAL, f"{prev[j]} -> {cur[j]} not dual (det {det})")
        if all_equal and path.mode is PathMode.PARALLEL:
            add(i, None, ViolationKind.PARALLEL_STEP, "consecutive systems entirely equal")
    return out


def _require_valid(path: DualPath) -> None:
    violations = validate_path(path)
    if violations:
        raise ValueError("invalid path: " + "; ".join(str(v) for v in violations))


def _check_steps(path: DualPath) -> None:
    """Coordinate-step legality only; tolerates fully parallel steps.

    Classification and the framed link are insensitive to the
    non-degeneracy condition that forbids entirely-equal neighbours, so
    they accept walks with trailing repeats (the repeats contribute
    nothing).
    """
    bad = [v for v in validate_path(path) if v.kind is not ViolationKind.PARALLEL_STEP]
    if bad:
        raise ValueError("invalid path: " + "; ".join(str(v) for v in bad))


def path_from_lens(lens: LensSpace, mode: str = "any") -> DualPath:
    """Genus-1 walk ending at a slope of the given lens space.

    mode "any" walks the full Farey graph (twisted summands allowed),
    mode "even" stays on even slopes so all summands come out untwisted.
    """
    if mode == "any":
        bound = twisted_bound(lens)
    elif mode == "even":
        bound = untwisted_bound(lens)
    else:
        raise ValueError(f"mode must be 'any' or 'even', got {mode!r}")
    return DualPath(tuple((v,) for v in bound.path.vertices), PathMode.DUAL)


class BlueCurve(NamedTuple):
    copy: int
    coordinate: int
    slope: Slope
    reflected: bool


class ScaffoldCurve(NamedTuple):
    kind: str  # "longitude" | "meridian" | "bridge"
    location: int  # copy index, or gap index for bridges
    coordinate: int


class TrisectionDiagram(NamedTuple):
    """The unfolded surface: copies of the model surface with curves.

    Copy k (left to right) carries the blue layer with path index
    i = k + 2 ascending to m, then descending back down to 1; layers with
    even path index are flagged reflected.  Red curves are g longitudes
    on the leftmost copy plus g bridges per gap; green are g meridians on
    the rightmost copy plus g bridges per gap.  For a walk of genus g with
    m steps (m + 1 systems), ``total_genus`` is 2g(m - 1) and
    ``ball_count`` is m - 1 for genus 1 and ``None`` otherwise.
    """

    genus_per_copy: int
    num_copies: int
    blue: tuple[BlueCurve, ...]
    red: tuple[ScaffoldCurve, ...]
    green: tuple[ScaffoldCurve, ...]
    path: DualPath
    total_genus: int
    ball_count: int | None


def _layer_index(copy: int, steps: int) -> int:
    return copy + 2 if copy <= steps - 2 else 2 * (steps - 1) - copy


def build_diagram(path: DualPath) -> TrisectionDiagram:
    """Unfold a valid walk into its trisection diagram."""
    _require_valid(path)
    g, m = path.genus, path.steps
    copies = 2 * (m - 1)
    blue = []
    for k in range(copies):
        i = _layer_index(k, m)
        for j in range(g):
            blue.append(BlueCurve(k, j, path.systems[i][j], reflected=(i % 2 == 0)))
    red = [ScaffoldCurve("longitude", 0, j) for j in range(g)]
    green = [ScaffoldCurve("meridian", copies - 1, j) for j in range(g)]
    for gap in range(copies - 1):
        red.extend(ScaffoldCurve("bridge", gap, j) for j in range(g))
        green.extend(ScaffoldCurve("bridge", gap, j) for j in range(g))
    total_genus = 2 * g * (m - 1)
    ball_count = m - 1 if g == 1 else None
    return TrisectionDiagram(
        genus_per_copy=g,
        num_copies=copies,
        blue=tuple(blue),
        red=tuple(red),
        green=tuple(green),
        path=path,
        total_genus=total_genus,
        ball_count=ball_count,
    )


class KirbyCurve(NamedTuple):
    layer: int  # 0 = innermost torus
    coordinate: int
    slope: Slope
    framing: int


class FramedLink(NamedTuple):
    """The blue curves read as a framed link on nested tori.

    Curves are ordered layer-major, with layers D_1, ..., D_m,
    D_{m-1}, ..., D_2 from the innermost torus outwards.  Two curves in
    the same coordinate on layers a < b link p_a * q_b times; distinct
    coordinates never link; the diagonal holds the framings p * q.  The
    record holds the curves only: `rows` computes the linking matrix one
    row at a time, and `linking_matrix` all of it.
    """

    curves: tuple[KirbyCurve, ...]

    def rows(self) -> Iterator[list[int]]:
        """The rows of the linking matrix, in curve order.

        Curve r = pos*g + j lies on layer pos in coordinate j, so row r is
        zero outside the columns j, j + g, ...: there it holds p_c * q_r for
        the curves c inside layer pos and p_r * q_c from r outwards, the
        framing p_r * q_r included.
        """
        curves = self.curves
        g = len({c.coordinate for c in curves})
        columns = [
            ([c.slope.p for c in curves[j::g]], [c.slope.q for c in curves[j::g]]) for j in range(g)
        ]
        for c in curves:
            ps, qs = columns[c.coordinate]
            p, q, pos = c.slope.p, c.slope.q, c.layer
            row = [0] * len(curves)
            row[c.coordinate :: g] = [x * q for x in ps[:pos]] + [p * y for y in qs[pos:]]
            yield row

    @property
    def linking_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The whole linking matrix, computed on each read."""
        return tuple(map(tuple, self.rows()))


def kirby_link(path: DualPath) -> FramedLink:
    """The framed link of a walk: one curve per slope of each layer, the
    (p, q) curve framed by p * q."""
    _check_steps(path)
    m = path.steps
    layers = [path.systems[i] for i in [*range(1, m + 1), *range(m - 1, 1, -1)]]
    return FramedLink(
        tuple(
            KirbyCurve(pos, j, s, s.p * s.q)
            for pos, system in enumerate(layers)
            for j, s in enumerate(system)
        )
    )


class ConnectSum(NamedTuple):
    """Connect sum of sphere bundles, as raw counts plus a normal form.

    One twisted summand absorbs all the untwisted ones (the twisted and
    untwisted bundles connect-sum to two twisted ones), so the normal
    form is #^a S2xS2 when b = 0 and #^(a+b) S2x~S2 otherwise.
    """

    raw_untwisted: int
    raw_twisted: int

    @property
    def total(self) -> int:
        return self.raw_untwisted + self.raw_twisted

    @property
    def normal_form(self) -> str:
        if self.raw_twisted:
            return f"#{self.total} S2x~S2"
        return f"#{self.raw_untwisted} S2xS2"

    def __str__(self) -> str:
        return self.normal_form


def classify(path: DualPath) -> ConnectSum:
    """The ambient connect sum produced by the handle-slide reduction.

    Each dual coordinate step at i = 2 ... m splits off one Hopf-link
    summand, untwisted when the arrival slope's framing p*q is even and
    twisted when odd; parallel coordinate steps split off cancelling
    0-framed unknot pairs and contribute nothing.
    """
    _check_steps(path)
    a = b = 0
    for i in range(2, path.steps + 1):
        for j in range(path.genus):
            cur = path.systems[i][j]
            if cur == path.systems[i - 1][j]:
                continue
            if (cur.p * cur.q) % 2 == 0:
                a += 1
            else:
                b += 1
    if a + b == 0:
        raise ValueError("walk has no dual steps past D_1; empty connect sum")
    return ConnectSum(a, b)

